"""Block-by-block models of the stable maps and their fiber censuses.

Each separating segment carries the same standard cross-section: a Morse
function on a sphere with four extrema (the link punctures, positions
1,2 maximal and 3,4 minimal) and two saddles, so its Reeb graph is a
tree with four leaves and two trivalent vertices.  Because the maps are
cusp-free, no deformation ever creates or destroys critical points, and
every intermediate slice carries a tree of the same shape.

A block depends only on its strip's kind, the parity of the strip's
crossings and the variant, so the local models form a catalogue of
relative blocks, one per key, built once (``_CATALOGUE``): every slice
is its tag, and the module holds the tree once (``LEAVES``, ``SADDLES``
and ``REEB_EDGES``).  Assembly slices the word's twist regions into
strips numbered as they are emitted (``curves._sliced``), kept by the
model's decomposition, reads each distinct strip's block off its kind
and crossing parity, and numbers the blocks by entry (``_catalogued``);
the model holds them as runs ``(block, count)`` (``curves._RunSeq``, at
fine with the filler after each interior one), and the trace and the
census (``_walk``), the export and the render read each entry's facts
from tables made beside the catalogue.  Assembly checks the trace
against the fraction and the census against the variant's closed form.
A model is valid when it equals the assembly of its word
(``validate_model``); a block that differs raises
``InvariantViolationError`` naming its index, the first field that
differs, and the catalogued and actual values.  Event slices carry tags
relative to the block, and a document names them by position
(``EVENT_SLICES``).

A Type 2 block contributes the singular-fiber events: two double-saddle
fibers of type II2 in an f2 model (one at each intermediate slice), or
exactly one of type II3 at the exit-side slice in an f3 model.  Caps
(Type 1/4 blocks) are 3-balls whose two link arcs pair the punctures
(1,2) and (3,4); Type 3 blocks carry no events and just permute strands
through the crossing they contain.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from functools import cached_property, lru_cache
from itertools import accumulate, islice, permutations, product, repeat

from .conway import ConwayWord, all_b_even, component_count, fraction_of
from .curves import (
    GRANULARITIES,
    VARIANTS,
    Strip,
    StripDecomposition,
    _as_runs,
    _Filled,
    _Numbering,
    _numbered,
    _RunSeq,
    _runs_of,
    _sliced,
    _through,
)
from .errors import (
    EvenBRequiredError,
    InvalidStripVariantError,
    InvariantViolationError,
    TraceMismatchError,
    TwoBridgeError,
    _quoted,
)

# The Reeb tree of the standard cross-section, which every slice carries:
# leaves 1 and 2 meet at the upper saddle, 3 and 4 at the lower one.
LEAVES = (1, 2, 3, 4)
SADDLES = ("s_hi", "s_lo")
REEB_EDGES = ((1, "s_hi"), (2, "s_hi"), SADDLES, ("s_lo", 3), ("s_lo", 4))
IDENTITY = (1, 2, 3, 4)
SWAP_MIDDLE = (1, 3, 2, 4)  # transposition induced by one middle-strand crossing
SWAP_TOP = (2, 1, 3, 4)  # transposition induced by one top-strand crossing
# Both caps close the plat by the arcs (1,2) and (3,4): each puncture's partner.
_PARTNER = {1: 2, 2: 1, 3: 4, 4: 3}

# An event slice's tag relative to its block: F' lies just after the
# block's entry section, F'' just before its exit section.  By position,
# in block k, they are named F{k}' and F{k+1}'': each relative tag maps
# to its positioned name and the offset of the section number from k.
EVENT_SLICES = {"F'": ("F{}'", 0), "F''": ("F{}''", 1)}


@dataclass(frozen=True)
class FiberEvent:
    kind: str  # 'II2' | 'II3'
    slice: str


@dataclass(frozen=True)
class BlockMap:
    """One block of the decomposition with its deformation event log.

    ``entry`` and ``exit`` are the tags of its sections, None on the
    missing side of a cap; ``permutation`` sends the entry position of a
    link strand to its exit position.  The rest follows from the kind: a
    cap (Type 1 or 4) is a 3-ball whose arcs pair the punctures (1,2) and
    (3,4), where the two indefinite fold curves close onto each other,
    and every other block is S^2 x I.
    """

    kind: str
    entry: str | None
    exit: str | None
    events: tuple[FiberEvent, ...]
    permutation: tuple[int, int, int, int]

    @property
    def slices(self) -> tuple[str, ...]:
        """The tags of its slices in order: entry, event slices, exit."""
        return tuple(tag for tag in (self.entry, *(event.slice for event in self.events), self.exit) if tag is not None)


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
    """Closed-curve decomposition of the definite fold set of ``blocks``.

    ``count``, the number of components, is found when the trace is
    built.  ``components`` lists each component as the cyclic list of
    (cross-section index, position) punctures it runs through; it is
    written out from the blocks when first read."""

    count: int
    blocks: Sequence[BlockMap] = field(repr=False, hash=False)

    @cached_property
    def components(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        return _components(self.blocks)


@dataclass(frozen=True)
class StableMapModel:
    """A strip decomposition and one block per strip.  The word, variant
    and granularity are those of the strips; the trace and the census
    are read off the blocks when first asked for."""

    strips: StripDecomposition
    blocks: Sequence[BlockMap] = field(hash=False)

    @property
    def word(self) -> ConwayWord:
        return self.strips.word

    @property
    def variant(self) -> str:
        return self.strips.variant

    @property
    def granularity(self) -> str:
        return self.strips.granularity

    @cached_property
    def trace(self) -> DefiniteFoldTrace:
        return _walk(self.blocks, self._blocks_numbered)[0]

    @cached_property
    def census(self) -> SingularFiberCensus:
        return _walk(self.blocks, self._blocks_numbered)[1]

    # The blocks numbered by entry (``_catalogued``), the strips by
    # identity and the fraction: set by assembly, or found on first use.
    @cached_property
    def _blocks_numbered(self) -> _Numbering:
        return _catalogued(_numbered(self.blocks))

    @cached_property
    def _strips_numbered(self) -> _Numbering:
        return self.strips._slicing[1]

    @cached_property
    def _fraction(self):  # the word's, kept by assembly
        return fraction_of(self.word)


_KINDS = ("type1", "type2", "type3", "type4")


def _block(kind: str, parity: int, variant: str, index: int | None) -> BlockMap:
    """The block of ``kind`` over a strip with ``parity`` crossings mod 2.

    Without ``index`` the block is relative: its entry and exit are the
    one standard section, and its event slices carry the tags F' and F''
    (``EVENT_SLICES``).  ``index`` names the block position, so that its
    sections read F{k} and F{k+1} and its event slices F{k}' and F{k+1}''.
    """
    if index is None:
        prime, dprime = EVENT_SLICES
        entry = exit_section = "F"  # the one section of every separating segment
    else:
        prime, dprime = (name.format(index + offset) for name, offset in EVENT_SLICES.values())
        entry, exit_section = f"F{index}", f"F{index + 1}"
    # A cap has one section: a Type 1 block its exit, a Type 4 block its entry.
    entry, exit_section = (None if kind == "type1" else entry), (None if kind == "type4" else exit_section)

    events, permutation = (), IDENTITY
    if kind == "type3":
        permutation = SWAP_MIDDLE if parity else IDENTITY
    elif kind == "type2" and variant == "f2":
        events = (FiberEvent("II2", prime), FiberEvent("II2", dprime))
        permutation = SWAP_TOP if parity else IDENTITY
    elif kind == "type2":
        events = (FiberEvent("II3", dprime),)
    return BlockMap(kind, entry, exit_section, events, permutation)


# The catalogue of local models: one relative block per strip kind,
# crossing parity and variant, shared by every model, and its entries
# numbered in order.
_CATALOGUE = {key: _block(*key, None) for key in product(_KINDS, (0, 1), VARIANTS)}
_ENTRIES = tuple(_CATALOGUE.values())
_NUMBER = {id(block): e for e, block in enumerate(_ENTRIES)}


def _catalogued(numbered: _Numbering, blocks: list | None = None) -> _Numbering:
    """``numbered`` (``curves._numbered``), whose value k has the block
    ``blocks[k]`` (the value itself by default), numbered by catalogue
    entry: a run's number is its block's.  Its values are ``_ENTRIES``,
    then any block equal to no entry, numbered on."""
    numbers, counts, fine, values = numbered
    blocks = values if blocks is None else blocks
    entry, extra = list(map(_NUMBER.get, map(id, blocks))), []
    for k in range(len(blocks)) if None in entry else ():
        if entry[k] is None and blocks[k] in _ENTRIES:  # equal to an entry
            entry[k] = _ENTRIES.index(blocks[k])
        elif entry[k] is None:
            entry[k] = len(_ENTRIES) + len(extra)
            extra.append(blocks[k])
    table = _ENTRIES + tuple(extra) if extra else _ENTRIES
    return _Numbering(list(map(entry.__getitem__, numbers)), counts, fine, table)


def _facts(table: tuple, numbered: _Numbering, fact) -> tuple:
    """``table`` (a fact per entry), then ``fact`` of each block past the entries of ``numbered``."""
    entries = numbered.values
    return table if entries is _ENTRIES else table + tuple(map(fact, entries[len(_ENTRIES) :]))


def build_block(strip: Strip, variant: str, index: int | None = None) -> BlockMap:
    """The catalogued block for one strip token, once its Type 2 content
    is checked against the variant: without ``index`` the one shared
    relative block for the strip's kind, crossing parity and variant
    (``_CATALOGUE``), with it a new block tagged by position (``_block``)."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    key = _catalogue_key(strip, variant)
    return _CATALOGUE[key] if index is None else _block(*key, index)


@lru_cache(maxsize=1024)
def _catalogue_key(strip: Strip, variant: str) -> tuple[str, int, str]:
    """The catalogue key of ``strip`` in a ``variant`` model, once the
    strip is checked against it (``build_block``: assembly reads the key of
    the strips it slices off their kind and columns).  A strip is a frozen
    value, so its key is kept per value and not checked again; the key,
    not the block, is kept, and the catalogue read on every call."""
    kind = strip.kind
    if kind not in _KINDS:
        raise InvalidStripVariantError(f"unknown strip kind {kind!r}")
    if kind == "type2":
        # A whole twist region is one column object repeated, so its kind
        # is read once.
        content = {column.kind for column, _ in _runs_of(strip.columns)}
        if variant == "f2" and content != {"crossing"}:
            raise InvalidStripVariantError(
                "an f2 Type 2 strip must hold a whole twist region of double points"
            )
        if variant == "f3" and (content != {"tangency"} or len(strip.columns) != 1):
            raise InvalidStripVariantError(
                "an f3 Type 2 strip must hold exactly one self-tangency"
            )
    return kind, len(strip.columns) % 2, variant


def _last_section(blocks: Sequence[BlockMap]) -> int:
    """n, the index of the last block and of the last section, once the
    first block is checked to be a Type 1 cap and the last a Type 4 one:
    of a run-length sequence, the first and last runs' objects."""
    n = len(blocks) - 1
    if n >= 1:
        first, last = (blocks.runs[0][0], blocks.runs[-1][0]) if isinstance(blocks, _RunSeq) else (blocks[0], blocks[n])
    if n < 1 or first.kind != "type1" or last.kind != "type4":
        raise TraceMismatchError("a model needs a cap block at either end")
    return n


def _orbit(perm: tuple[int, ...], pos: int) -> list[int]:
    """``pos, perm(pos), perm(perm(pos)), ...`` up to the first repeat."""
    orbit = [pos]
    nxt = perm[pos - 1]
    while nxt != pos:
        orbit.append(nxt)
        nxt = perm[nxt - 1]
    return orbit


def _permuting(perm: tuple[int, ...], index: int) -> tuple[int, ...]:
    """``perm``, the permutation of block ``index``, if it permutes the
    four punctures; else no strand walk through it ends."""
    if perm not in _PERM_NUMBER:
        raise TraceMismatchError(f"block {index} permutation {perm!r} does not permute the four punctures")
    return perm


def _cycles(across: tuple[int, ...]) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The components of the definite fold set as legs ``(q, p)`` on
    section 1: leave the first cap's arc at q, cross to section n (the
    strand from puncture p gets to ``across[p - 1]``), take the last cap's
    arc and come back to p; the next leg leaves from p's partner.  Each
    component starts from its smallest puncture."""
    back = {q: p for p, q in enumerate(across, 1)}
    unseen = set(LEAVES)
    cycles = []
    while unseen:
        p = start = min(unseen)
        legs = []
        while not legs or p != start:
            q = _PARTNER[p]
            unseen -= {p, q}
            p = back[_PARTNER[across[q - 1]]]
            legs.append((q, p))
        cycles.append(tuple(legs))
    return tuple(cycles)


# The 24 permutations of the four punctures, numbered, the identity 0:
# ``_THEN[a][b]`` is a then b, ``_POWERS[a][k]`` is a applied k times
# (every permutation of four points has an order dividing 12), and
# ``_CYCLES[a]`` the components that a, carrying section 1 to section n,
# makes with the caps' arcs.
_PERMS = tuple(permutations(LEAVES))
_PERM_NUMBER = {perm: a for a, perm in enumerate(_PERMS)}
_THEN = tuple(tuple(_PERM_NUMBER[tuple(q[x - 1] for x in p)] for q in _PERMS) for p in _PERMS)
_POWERS = tuple(tuple(accumulate(repeat(a, 11), lambda b, a: _THEN[b][a], initial=0)) for a in range(len(_PERMS)))
_CYCLES = tuple(map(_cycles, _PERMS))


def _block_facts(block: BlockMap) -> tuple[int, int, int, bool]:
    """What ``_walk`` reads off a block: its permutation's number (-1 if
    none of the 24), its II2 and II3 events, and whether it is a cap."""
    kinds = [event.kind for event in block.events]
    return _PERM_NUMBER.get(block.permutation, -1), kinds.count("II2"), kinds.count("II3"), block.kind in ("type1", "type4")


_FACTS = tuple(map(_block_facts, _ENTRIES))


def _walk(blocks: Sequence[BlockMap], numbered: _Numbering | None = None) -> tuple[DefiniteFoldTrace, SingularFiberCensus]:
    """The trace and the census of ``blocks``, one step per run of their
    numbering by entry (``_catalogued``).  The caps pair the punctures
    (1,2) and (3,4) of the first and of the last section; a run of
    ``count`` blocks 1..n-1 with permutation P carries the strands across
    as P to the power ``count``, and the components are the cycles that
    their composition makes with the caps' arcs (``_CYCLES``); at fine,
    the filler has no events and permutes nothing.  The indefinite fold
    set's two curves close up only in the caps, so each circle takes two."""
    n = _last_section(blocks)
    numbers, counts, _, _ = numbered = numbered or _catalogued(_numbered(blocks))
    facts = _facts(_FACTS, numbered, _block_facts)
    if facts is not _FACTS and min(facts)[0] < 0:  # a block past the entries permutes no four punctures: is it among 1..n-1?
        for i, block in enumerate(islice(blocks, 1, n), 1):
            _permuting(block.permutation, i)
    across = ii2 = ii3 = caps = 0  # across: where the punctures of section 1 have got to
    for i, (number, count) in enumerate(zip(numbers, counts)):
        perm, a, b, cap = facts[number]
        ii2, ii3, caps = ii2 + a * count, ii3 + b * count, caps + cap * count
        if perm > 0:  # of the run's blocks, those among 1..n-1
            across = _THEN[across][_POWERS[perm][(count - (i == 0) - (i == len(numbers) - 1)) % 12]]
    trace = DefiniteFoldTrace(len(_CYCLES[across]), blocks)
    return trace, SingularFiberCensus(ii2, ii3, trace.count, caps // 2)


def _components(blocks: Sequence[BlockMap]) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Write out the components of the definite fold set as the
    punctures ``(section, position)`` they run through.

    Four strand tracks, one from each puncture of section 1, list the
    strand's position at every section, run by run: a run of blocks with
    permutation P takes the strand round its cycle of P.  Each leg
    ``(q, p)`` of a component (``_cycles``) is q's track forward and p's back.
    """
    n = _last_section(blocks)
    tracks = [[pos] for pos in LEAVES]  # tracks[p - 1]: from puncture p of section 1
    start = 0
    for block, count in _runs_of(blocks):
        lo, start = start or 1, start + count
        if lo < min(start, n):  # the run, cut to 1..n-1
            perm, count = _permuting(block.permutation, lo), min(start, n) - lo
            for track in tracks:
                orbit = _orbit(perm, perm[track[-1] - 1])
                track += (orbit * (count // len(orbit) + 1))[:count]
    sections = list(range(1, n + 1))
    components = []
    for legs in _CYCLES[_PERM_NUMBER[tuple(track[-1] for track in tracks)]]:
        cycle = []
        for q, p in legs:
            cycle += zip(sections, tracks[q - 1])
            cycle += zip(reversed(sections), reversed(tracks[p - 1]))
        cycle.insert(0, cycle.pop())  # it ends at its start, (1, start)
        components.append(tuple(cycle))
    return tuple(components)


def assemble_stable_map(
    word: ConwayWord, variant: str, granularity: str = "crossing"
) -> StableMapModel:
    """The model of ``word``: the strips its twist regions slice into,
    the catalogued block of each, the trace and the census.

    Requires every vertical twist count even; the resulting model carries
    exactly 2m II2 events (f2) or half the total vertical crossings as
    II3 events (f3), and its definite-fold trace reproduces the link's
    component count.

    The last model built is kept, keyed on ``(word, variant,
    granularity)``, and returned again for the same arguments, so that
    importing the export of a model just built does not build it twice.
    A model is frozen and a pure function of those arguments, so the kept
    one equals a fresh one; it passed assembly's checks when it was built.
    A call that raises is not kept.
    """
    if variant in VARIANTS and granularity in GRANULARITIES:
        return _last_model(word, variant, granularity)
    # An unknown variant or granularity, which need not even hash, takes
    # the same path to the same error, past the memo.
    return _assemble(word, variant, granularity)


def _assemble(word: ConwayWord, variant: str, granularity: str) -> StableMapModel:
    if not all_b_even(word):
        raise EvenBRequiredError(
            f"{_quoted(str(word), str)} has an odd vertical twist count; the construction needs even b_i"
        )
    fraction = fraction_of(word)
    # One walk over the word's regions slices and numbers the strips; each
    # distinct one is mapped to its block by its kind and crossing parity.
    strips = StripDecomposition(word, variant, granularity)
    sequence, numbered = vars(strips)["_slicing"] = _sliced(word, variant, granularity)
    entries = _catalogued(numbered, [_CATALOGUE[strip.kind, len(strip.columns) % 2, variant] for strip in numbered.values])
    runs = _through(entries, entries.values)
    blocks = _Filled(runs, sequence, _CATALOGUE["type3", 0, variant]) if entries.fine else _RunSeq(runs, sequence)
    model = StableMapModel(strips, blocks)
    trace, census = _walk(model.blocks, entries)
    vars(model).update(_blocks_numbered=entries, _strips_numbered=numbered, _fraction=fraction, trace=_check_trace(trace, fraction), census=census)
    # The variant's closed form: 2m II2 fibers, or sum|b|/2 II3 fibers.
    expected = (2 * word.m, 0) if variant == "f2" else (0, sum(map(abs, word.b_entries)) // 2)
    if (census.ii2, census.ii3) != expected:
        raise InvariantViolationError(f"census ({census.ii2}, {census.ii3}) != expected {expected}")
    return model


# One entry: no model outlives the next assembly.
_last_model = lru_cache(maxsize=1)(_assemble)


def fiber_census(model: StableMapModel) -> SingularFiberCensus:
    """Recompute the census from the block event logs; cached counts are
    never trusted."""
    return _walk(model.blocks, model._blocks_numbered)[1]


def trace_definite_folds(model: StableMapModel) -> DefiniteFoldTrace:
    """Recompute the closed-curve decomposition of the definite fold set."""
    return _check_trace(_walk(model.blocks, model._blocks_numbered)[0], model._fraction)


def _check_trace(trace: DefiniteFoldTrace, fraction) -> DefiniteFoldTrace:
    expected = component_count(fraction)
    if trace.count != expected:
        raise TraceMismatchError(
            f"definite-fold trace has {trace.count} components, "
            f"fraction {fraction} demands {expected}"
        )
    return trace


def validate_model(model: StableMapModel) -> None:
    """Check that ``model`` equals the assembly of its word.  After one
    block per strip, the trace of the blocks is checked against the
    fraction first, so a permutation that changes the component count
    raises ``TraceMismatchError``.  Then the blocks (run by run, where
    their runs line up) are compared with the assembly's, whose strips
    are the model's, and the first difference, found block by block,
    raises ``InvariantViolationError``."""
    if len(model.blocks) != len(model.strips.strips):
        raise InvariantViolationError("blocks and strips out of step")
    _check_trace(model.trace, fraction_of(model.word))
    try:
        fresh = assemble_stable_map(model.word, model.variant, model.granularity)
    except TwoBridgeError as err:
        raise InvariantViolationError(f"the word does not decompose: {err}") from None
    if _as_runs(model.blocks) != fresh.blocks:  # the first block that differs, item by item
        index, block, catalogued = next((i, x, y) for i, (x, y) in enumerate(zip(model.blocks, fresh.blocks)) if x != y)
        # the first field that differs, or else the class
        name = next((f.name for f in fields(BlockMap) if getattr(block, f.name) != getattr(catalogued, f.name)), "type")
        raise InvariantViolationError(
            f"block {index}: {name} is {getattr(block, name, type(block))!r}, "
            f"the catalogued {catalogued.kind} block has {getattr(catalogued, name, BlockMap)!r}"
        )
