"""Block-by-block models of the stable maps and their fiber censuses.

Each separating segment carries the same standard cross-section: a Morse
function on a sphere with four extrema (the link punctures, positions
1,2 maximal and 3,4 minimal) and two saddles, so its Reeb graph is a
tree with four leaves and two trivalent vertices.  Because the maps are
cusp-free, no deformation ever creates or destroys critical points, and
every intermediate slice carries a tree of the same shape; the Euler
count (#leaves - #trivalent = 2) is checked at every slice.

A Type 2 block contributes the singular-fiber events: two double-saddle
fibers of type II2 in an f2 model (one at each intermediate slice), or
exactly one of type II3 at the exit-side slice in an f3 model.  Caps
(Type 1/4 blocks) are 3-balls whose two link arcs pair the punctures
(1,2) and (3,4); Type 3 blocks carry no events and just permute strands
through the crossing they contain.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .conway import ConwayWord, all_b_even, component_count, fraction_of
from .curves import (
    Strip,
    StripDecomposition,
    bigon_reduce,
    build_plat_diagram,
    outer_smooth,
    strip_decompose,
)
from .errors import (
    EvenBRequiredError,
    InvalidStripVariantError,
    InvariantViolationError,
    TraceMismatchError,
)

LEAVES = (1, 2, 3, 4)
SADDLES = ("s_hi", "s_lo")
IDENTITY = (1, 2, 3, 4)
SWAP_MIDDLE = (1, 3, 2, 4)  # transposition induced by one middle-strand crossing
SWAP_TOP = (2, 1, 3, 4)  # transposition induced by one top-strand crossing
CAP_PAIRING = ((1, 2), (3, 4))


@dataclass(frozen=True)
class CrossSection:
    """Reeb tree of the standard cross-section Morse function."""

    tag: str
    leaves: tuple[int, ...] = LEAVES
    saddles: tuple[str, ...] = SADDLES
    edges: tuple[tuple[object, object], ...] = (
        (1, "s_hi"),
        (2, "s_hi"),
        ("s_hi", "s_lo"),
        ("s_lo", 3),
        ("s_lo", 4),
    )
    order: tuple[object, ...] = (1, 2, "s_hi", "s_lo", 3, 4)

    @property
    def leaf_count(self) -> int:
        return len(self.leaves)

    @property
    def trivalent_count(self) -> int:
        return len(self.saddles)

    @property
    def euler_ok(self) -> bool:
        return self.leaf_count - self.trivalent_count == 2

    def is_tree(self) -> bool:
        return _is_tree(self.leaves, self.saddles, self.edges)


@lru_cache(maxsize=64)
def _is_tree(leaves, saddles, edges) -> bool:
    """Connected with one edge fewer than vertices.  Memoised on the
    shape, since every slice of every model carries the same tree."""
    vertices = set(leaves) | set(saddles)
    if len(edges) != len(vertices) - 1:
        return False
    adjacency = {v: [] for v in vertices}
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    seen = set()
    stack = [next(iter(vertices))]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        stack.extend(adjacency[v])
    return seen == vertices


def standard_cross_section(tag: str = "F") -> CrossSection:
    """The catalogued cross-section: leaves 1,2 above the saddles, 3,4 below."""
    return CrossSection(tag=tag)


@dataclass(frozen=True)
class FiberEvent:
    kind: str  # 'II2' | 'II3'
    slice: str
    saddles: tuple[str, ...] = SADDLES


@dataclass(frozen=True)
class BlockMap:
    """One block of the decomposition with its deformation event log.

    ``permutation`` sends the entry position of a link strand to its exit
    position; ``saddle_map`` tracks how the two indefinite fold curves
    continue ('join' in caps, where they close onto each other).
    """

    kind: str
    variant: str
    entry: CrossSection | None
    exit: CrossSection | None
    events: tuple[FiberEvent, ...]
    permutation: tuple[int, int, int, int]
    saddle_map: str  # 'id' | 'swap' | 'join'
    pairing: tuple[tuple[int, int], ...]
    topology: str  # 'ball' | 'sphere_x_interval'
    slices: tuple[CrossSection, ...]


@dataclass(frozen=True)
class SingularFiberCensus:
    ii2: int
    ii3: int
    definite_components: int
    indefinite_circles: int

    def __post_init__(self):
        if min(self.ii2, self.ii3, self.definite_components, self.indefinite_circles) < 0:
            raise ValueError("census counts must be non-negative")


@dataclass(frozen=True)
class DefiniteFoldTrace:
    """Closed-curve decomposition of the definite fold set: each component
    is the cyclic list of (cross-section index, position) punctures it runs
    through."""

    components: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def count(self) -> int:
        return len(self.components)


@dataclass(frozen=True)
class StableMapModel:
    variant: str
    word: ConwayWord
    granularity: str
    strips: StripDecomposition
    blocks: tuple[BlockMap, ...]
    sections: tuple[CrossSection, ...]
    census: SingularFiberCensus
    trace: DefiniteFoldTrace


def _transpositions(base: tuple[int, int, int, int], count: int) -> tuple[int, int, int, int]:
    return base if count % 2 == 1 else IDENTITY


def build_block(
    strip: Strip,
    variant: str,
    index: int | None = None,
    entry: CrossSection | None = None,
    exit_section: CrossSection | None = None,
) -> BlockMap:
    """Build the catalogued block for one strip token.

    ``index`` names the block position so that event slices read F{k}'
    and F{k+1}''; standalone calls get generic tags.
    """
    if variant not in ("f2", "f3"):
        raise ValueError(f"unknown variant {variant!r}")
    k = index
    entry_tag = f"F{k}" if k is not None else "F"
    exit_tag = f"F{k + 1}" if k is not None else "G"
    prime = f"F{k}'" if k is not None else "F'"
    dprime = f"F{k + 1}''" if k is not None else "F''"

    if strip.kind == "type1":
        section = exit_section or standard_cross_section(exit_tag)
        return BlockMap(
            kind="type1",
            variant=variant,
            entry=None,
            exit=section,
            events=(),
            permutation=IDENTITY,
            saddle_map="join",
            pairing=CAP_PAIRING,
            topology="ball",
            slices=(section,),
        )
    if strip.kind == "type4":
        section = entry or standard_cross_section(entry_tag)
        return BlockMap(
            kind="type4",
            variant=variant,
            entry=section,
            exit=None,
            events=(),
            permutation=IDENTITY,
            saddle_map="join",
            pairing=CAP_PAIRING,
            topology="ball",
            slices=(section,),
        )

    entry = entry or standard_cross_section(entry_tag)
    exit_section = exit_section or standard_cross_section(exit_tag)

    if strip.kind == "type3":
        crossings = len(strip.columns)
        return BlockMap(
            kind="type3",
            variant=variant,
            entry=entry,
            exit=exit_section,
            events=(),
            permutation=_transpositions(SWAP_MIDDLE, crossings),
            saddle_map="id",
            pairing=(),
            topology="sphere_x_interval",
            slices=(entry, exit_section),
        )

    if strip.kind != "type2":
        raise InvalidStripVariantError(f"unknown strip kind {strip.kind!r}")

    content = {c.kind for c in strip.columns}
    if variant == "f2":
        if content != {"crossing"}:
            raise InvalidStripVariantError(
                "an f2 Type 2 strip must hold a whole twist region of double points"
            )
        return BlockMap(
            kind="type2",
            variant="f2",
            entry=entry,
            exit=exit_section,
            events=(
                FiberEvent("II2", prime),
                FiberEvent("II2", dprime),
            ),
            permutation=_transpositions(SWAP_TOP, len(strip.columns)),
            saddle_map="id",
            pairing=(),
            topology="sphere_x_interval",
            slices=(
                entry,
                standard_cross_section(prime),
                standard_cross_section(dprime),
                exit_section,
            ),
        )
    if content != {"tangency"} or len(strip.columns) != 1:
        raise InvalidStripVariantError(
            "an f3 Type 2 strip must hold exactly one self-tangency"
        )
    return BlockMap(
        kind="type2",
        variant="f3",
        entry=entry,
        exit=exit_section,
        events=(FiberEvent("II3", dprime),),
        permutation=IDENTITY,
        saddle_map="swap",
        pairing=(),
        topology="sphere_x_interval",
        slices=(entry, standard_cross_section(dprime), exit_section),
    )


def _trace_cycles(size: int, ends: list[int]) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Cycle decomposition of a 2-regular graph on nodes ``0..size-1``.

    ``ends`` lists the edges flat, ``[u0, v0, u1, v1, ...]``; node ``i``
    is the puncture ``(i // 4 + 1, i % 4 + 1)``.  Each node keeps its two
    neighbours in edge order, and every cycle starts at its smallest node
    and leaves it towards the first neighbour.
    """
    first = [-1] * size
    second = [-1] * size
    extra = []
    for i, x in enumerate(ends):
        if first[x] < 0:
            first[x] = ends[i ^ 1]
        elif second[x] < 0:
            second[x] = ends[i ^ 1]
        else:
            extra.append(x)
    if extra or -1 in second:
        short = [second.index(-1)] if -1 in second else []
        bad = min(extra + short)
        raise TraceMismatchError(
            f"strand graph not 2-regular at {(bad // 4 + 1, bad % 4 + 1)}"
        )
    labels = [(k, pos) for k in range(1, size // 4 + 1) for pos in LEAVES]
    seen = bytearray(size)
    cycles = []
    for start in range(size):
        if seen[start]:
            continue
        seen[start] = 1
        cycle = [labels[start]]
        prev, here = -1, start
        while True:
            nxt = first[here]
            if nxt == prev:
                nxt = second[here]
            if nxt == start:
                break
            cycle.append(labels[nxt])
            seen[nxt] = 1
            prev, here = here, nxt
        cycles.append(tuple(cycle))
    return tuple(cycles)


def _definite_trace(blocks: tuple[BlockMap, ...]) -> DefiniteFoldTrace:
    """Trace the strands through the blocks: cap arcs at both ends, and
    each middle block sends puncture ``pos`` of section ``j`` to puncture
    ``permutation[pos - 1]`` of section ``j + 1``."""
    n = len(blocks) - 1
    last = 4 * (n - 1) - 1
    ends = [x - 1 for pair in blocks[0].pairing for x in pair]
    for base, block in zip(range(0, 4 * n, 4), blocks[1:-1]):
        p1, p2, p3, p4 = block.permutation
        ends += (
            base, base + 3 + p1,
            base + 1, base + 3 + p2,
            base + 2, base + 3 + p3,
            base + 3, base + 3 + p4,
        )
    ends += (last + x for pair in blocks[-1].pairing for x in pair)
    return DefiniteFoldTrace(components=_trace_cycles(4 * n, ends))


def _indefinite_circles(blocks: tuple[BlockMap, ...]) -> int:
    """Circles of the indefinite fold set.  Its two curves run through
    every block ('id' or 'swap' only exchanges which is which) and close
    up only in 'join' blocks, so each circle takes two of those."""
    return sum(1 for block in blocks if block.saddle_map == "join") // 2


def _census_from_blocks(blocks: tuple[BlockMap, ...], trace: DefiniteFoldTrace) -> SingularFiberCensus:
    ii2 = sum(1 for blk in blocks for e in blk.events if e.kind == "II2")
    ii3 = sum(1 for blk in blocks for e in blk.events if e.kind == "II3")
    return SingularFiberCensus(
        ii2=ii2,
        ii3=ii3,
        definite_components=trace.count,
        indefinite_circles=_indefinite_circles(blocks),
    )


def assemble_stable_map(
    word: ConwayWord, variant: str, granularity: str = "crossing"
) -> StableMapModel:
    """Run the whole pipeline: diagram, curve, strips, blocks, census.

    Requires every vertical twist count even; the resulting model carries
    exactly 2m II2 events (f2) or half the total vertical crossings as
    II3 events (f3), and its definite-fold trace reproduces the link's
    component count.
    """
    if not all_b_even(word):
        raise EvenBRequiredError(
            f"{word} has an odd vertical twist count; the construction needs even b_i"
        )
    fraction = fraction_of(word)
    diagram = build_plat_diagram(word)
    curve = outer_smooth(diagram)
    if variant == "f3":
        curve = bigon_reduce(curve)
    strips = strip_decompose(curve, variant, granularity)

    n = strips.n
    sections = tuple(standard_cross_section(f"F{k}") for k in range(1, n + 1))
    blocks = []
    for j, strip in enumerate(strips.strips):
        blocks.append(
            build_block(
                strip,
                variant,
                index=j,
                entry=sections[j - 1] if j >= 1 else None,
                exit_section=sections[j] if j < n else None,
            )
        )
    blocks = tuple(blocks)

    trace = _checked_trace(blocks, fraction)
    model = StableMapModel(
        variant=variant,
        word=word,
        granularity=granularity,
        strips=strips,
        blocks=blocks,
        sections=sections,
        census=_census_from_blocks(blocks, trace),
        trace=trace,
    )
    _check_structure(model)
    return model


def fiber_census(model: StableMapModel) -> SingularFiberCensus:
    """Recompute the census from the block event logs; cached counts are
    never trusted."""
    return _census_from_blocks(model.blocks, _definite_trace(model.blocks))


def trace_definite_folds(model: StableMapModel) -> DefiniteFoldTrace:
    """Recompute the closed-curve decomposition of the definite fold set."""
    return _checked_trace(model.blocks, fraction_of(model.word))


def _checked_trace(blocks: tuple[BlockMap, ...], fraction) -> DefiniteFoldTrace:
    trace = _definite_trace(blocks)
    expected = component_count(fraction)
    if trace.count != expected:
        raise TraceMismatchError(
            f"definite-fold trace has {trace.count} components, "
            f"fraction {fraction} demands {expected}"
        )
    return trace


def _check_structure(model: StableMapModel) -> None:
    """The invariants that do not re-derive the trace: strip word legal,
    blocks on the right strips and glued exactly, Euler count and tree at
    every slice, event slices materialised, and the cached census of one
    fiber type with the variant's count."""
    strips = model.strips
    if not strips.ok:
        failed = [name for name, passed in strips.validation if not passed]
        raise InvariantViolationError(f"strip validation failed: {failed}")
    if len(model.blocks) != len(strips.strips):
        raise InvariantViolationError("blocks and strips out of step")
    for block, strip in zip(model.blocks, strips.strips):
        if block.kind != strip.kind:
            raise InvariantViolationError(f"block {block.kind} on strip {strip.kind}")
    for left, right in zip(model.blocks, model.blocks[1:]):
        if left.exit is not None or right.entry is not None:
            shared_left = left.exit if left.exit is not None else left.entry
            shared_right = right.entry if right.entry is not None else right.exit
            if shared_left != shared_right:
                raise InvariantViolationError(
                    f"gluing mismatch between {left.kind} and {right.kind}"
                )
    for block in model.blocks:
        for section in block.slices:
            if not section.euler_ok or not section.is_tree():
                raise InvariantViolationError(f"bad slice {section.tag} in {block.kind}")
        if block.events:
            tags = {s.tag for s in block.slices}
            for event in block.events:
                if event.slice not in tags:
                    raise InvariantViolationError(
                        f"event slice {event.slice} not materialized"
                    )
    census = model.census
    if census.ii2 and census.ii3:
        raise InvariantViolationError("model mixes II2 and II3 fibers")
    word = model.word
    if model.variant == "f2":
        expected = (2 * word.m, 0)
    else:
        expected = (0, sum(abs(b) for b in word.b_entries) // 2)
    if (census.ii2, census.ii3) != expected:
        raise InvariantViolationError(
            f"census ({census.ii2}, {census.ii3}) != expected {expected}"
        )


def validate_model(model: StableMapModel) -> None:
    """Every invariant assembly checks, plus a fresh trace and census
    from the blocks compared with the cached ones, so that a model edited
    after assembly is rejected."""
    _check_structure(model)
    trace = trace_definite_folds(model)
    if trace != model.trace:
        raise TraceMismatchError("cached trace disagrees with the blocks")
    if _census_from_blocks(model.blocks, trace) != model.census:
        raise InvariantViolationError("cached census disagrees with block logs")
