"""Curves and strip decompositions of a word, the public stages, and run-length sequences."""

from dataclasses import fields

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracles import A_STRANDS, _pattern_strand_sequence
from twobridge.conway import ConwayWord
from twobridge.curves import (
    GRANULARITIES,
    VARIANTS,
    Column,
    ImmersedCurve,
    PlatDiagram,
    Strip,
    StripDecomposition,
    _Filled,
    _RunSeq,
    _runs,
    _runs_of,
    bigon_reduce,
    build_plat_diagram,
    outer_smooth,
    strip_decompose,
)
from twobridge.errors import (
    DegenerateFractionError,
    OddTwistError,
    VariantMismatchError,
)
from twobridge.morse import BlockMap, assemble_stable_map

def _count(items, kind) -> int:
    """How many of ``items`` (columns or strips) are of ``kind``."""
    return [x.kind for x in items].count(kind)


entry = st.integers(min_value=-6, max_value=6).filter(lambda e: e != 0)
words = st.lists(entry, min_size=1, max_size=7).filter(lambda l: len(l) % 2 == 1).map(
    lambda l: ConwayWord(tuple(l))
)


def test_diagram_crossing_counts():
    # a diagram's crossings are its curve's columns, one run per region
    columns = outer_smooth(build_plat_diagram(ConwayWord((3, 2, 3)))).columns
    assert len(columns) == 8
    assert tuple(n for _, n in columns.runs) == (3, 2, 3)


def test_diagram_sign_tags():
    columns = outer_smooth(build_plat_diagram(ConwayWord((2, -2, 2)))).columns
    assert len(columns) == 6
    # the b-region keeps its double points, signed by its entry
    middle = columns[2:4]
    assert all(c == Column("crossing", -1) for c in middle)
    # the outer-adjacent crossings are smoothed to passes
    outer = columns[:2] + columns[4:]
    assert all(c == Column("pass", 1) for c in outer)


def test_diagram_single_region():
    columns = outer_smooth(build_plat_diagram(ConwayWord((5,)))).columns
    assert len(columns) == 5
    assert tuple(n for _, n in columns.runs) == (5,)


@given(words)
def test_plat_diagram_matches_the_per_crossing_oracle(word):
    # the f2 curve column by column against the determinant oracle's strands
    columns = outer_smooth(build_plat_diagram(word)).columns
    strands = _pattern_strand_sequence(tuple(map(abs, word.entries)))
    assert [c.kind for c in columns] == ["pass" if s == A_STRANDS else "crossing" for s in strands]
    assert [c.sign for c in columns] == [e // abs(e) for e in word.entries for _ in range(abs(e))]
    # one run per twist region, of one of four shared columns
    assert len(columns.runs) == len(word.entries)
    assert len(set(map(id, columns))) <= 4


def test_a_diagram_a_curve_and_a_decomposition_are_their_arguments():
    word = ConwayWord((3, -2, 3))
    assert [f.name for f in fields(PlatDiagram)] == ["word"]
    assert build_plat_diagram is PlatDiagram
    assert PlatDiagram(word) == build_plat_diagram(word)
    assert [f.name for f in fields(ImmersedCurve)] == ["word", "variant"]
    assert [f.name for f in fields(StripDecomposition)] == ["word", "variant", "granularity"]
    # each public stage is the value of its arguments, equal and of equal hash
    curve = outer_smooth(PlatDiagram(word))
    assert curve == ImmersedCurve(word, "f2") and hash(curve) == hash(ImmersedCurve(word, "f2"))
    assert bigon_reduce(curve) == ImmersedCurve(word, "f3")
    for variant in VARIANTS:
        for granularity in GRANULARITIES:
            decomposition = strip_decompose(ImmersedCurve(word, variant), variant, granularity)
            assert decomposition == StripDecomposition(word, variant, granularity)
            assert decomposition.strips == assemble_stable_map(word, variant, granularity).strips.strips


@pytest.mark.parametrize("build", [lambda word: ImmersedCurve(word, "f3"), *(lambda word, g=g: StripDecomposition(word, "f3", g) for g in GRANULARITIES)])
def test_an_f3_curve_or_decomposition_of_an_odd_region_cannot_be_built(build):
    # the message bigon_reduce gives, naming the first odd region by its place in the word
    for text, message in (((2, 3, 2), "region 1 has 3 double points"), ((2, 2, 1, -5, 1), "region 3 has 5 double points")):
        word = ConwayWord(text)
        with pytest.raises(OddTwistError, match=f"^{message}; pairing impossible$"):
            build(word)
        with pytest.raises(OddTwistError, match=f"^{message}; pairing impossible$"):
            bigon_reduce(outer_smooth(PlatDiagram(word)))
    # f2 slices a whole odd region as one Type 2 strip
    assert StripDecomposition(ConwayWord((2, 3, 2)), "f2", "region").strips[2].param == 3


@pytest.mark.parametrize("variant, granularity, message", [("f4", "crossing", "unknown variant 'f4'"), ("F2", "fine", "unknown variant 'F2'"), ("f2", "coarse", "unknown granularity 'coarse'"), ("f3", None, "unknown granularity None")])
def test_an_unknown_variant_or_granularity_cannot_be_built(variant, granularity, message):
    word = ConwayWord((3, 2, 3))
    with pytest.raises(ValueError, match=f"^{message}$"):
        StripDecomposition(word, variant, granularity)
    with pytest.raises(ValueError, match=f"^{message}$"):
        strip_decompose(ImmersedCurve(word, "f2"), variant, granularity)
    if granularity == "crossing":
        with pytest.raises(ValueError, match=f"^{message}$"):
            ImmersedCurve(word, variant)


# --- outer smoothing ---------------------------------------------------------

def test_outer_smooth_double_points():
    curve = outer_smooth(build_plat_diagram(ConwayWord((3, 2, 3))))
    assert _count(curve.columns, "crossing") == 2
    assert _count(curve.columns, "tangency") == 0
    assert curve.variant == "f2"


def test_outer_smooth_keeps_b_regions_only():
    curve = outer_smooth(build_plat_diagram(ConwayWord((2, 4, 2))))
    assert _count(curve.columns, "crossing") == 4


def test_outer_smooth_torus_word_is_embedded():
    curve = outer_smooth(build_plat_diagram(ConwayWord((5,))))
    assert _count(curve.columns, "crossing") == 0
    assert [c.kind for c in curve.columns] == ["pass"] * 5


@given(words)
def test_outer_smooth_invariants(word):
    curve = outer_smooth(build_plat_diagram(word))
    assert _count(curve.columns, "crossing") == sum(abs(b) for b in word.b_entries)


# --- bigon reduction ---------------------------------------------------------

def test_bigon_reduce_halves_each_region():
    curve = outer_smooth(build_plat_diagram(ConwayWord((3, 2, 3))))
    reduced = bigon_reduce(curve)
    assert reduced.variant == "f3"
    assert _count(reduced.columns, "crossing") == 0
    assert _count(reduced.columns, "tangency") == 1


def test_bigon_reduce_counts():
    curve = outer_smooth(build_plat_diagram(ConwayWord((2, 4, 2))))
    assert _count(bigon_reduce(curve).columns, "tangency") == 2


def test_bigon_reduce_rejects_odd_twist():
    curve = outer_smooth(build_plat_diagram(ConwayWord((2, 1, 2))))
    with pytest.raises(OddTwistError):
        bigon_reduce(curve)


def test_bigon_reduce_rejects_reduced_input():
    curve = bigon_reduce(outer_smooth(build_plat_diagram(ConwayWord((2, 2, 2)))))
    with pytest.raises(VariantMismatchError):
        bigon_reduce(curve)


@given(words.filter(lambda w: all(b % 2 == 0 for b in w.b_entries)))
def test_bigon_reduce_invariants(word):
    curve = outer_smooth(build_plat_diagram(word))
    reduced = bigon_reduce(curve)
    assert _count(reduced.columns, "crossing") == 0
    assert _count(reduced.columns, "tangency") == _count(curve.columns, "crossing") // 2


# --- strip decomposition -----------------------------------------------------

def test_f2_strip_word_shape():
    curve = outer_smooth(build_plat_diagram(ConwayWord((3, 2, 3))))
    decomposition = strip_decompose(curve, "f2")
    kinds = [s.kind for s in decomposition.strips]
    assert kinds[0] == "type1" and kinds[-1] == "type4"
    assert kinds.count("type2") == 1
    type2 = next(s for s in decomposition.strips if s.kind == "type2")
    assert type2.param == 2  # the whole b-region, signed


def test_f3_strip_count():
    curve = bigon_reduce(outer_smooth(build_plat_diagram(ConwayWord((2, 4, 2)))))
    decomposition = strip_decompose(curve, "f3")
    assert _count(decomposition.strips, "type2") == 2


def test_torus_word_has_no_type2():
    curve = outer_smooth(build_plat_diagram(ConwayWord((5,))))
    decomposition = strip_decompose(curve, "f2")
    assert _count(decomposition.strips, "type2") == 0
    assert [s.kind for s in decomposition.strips] == (
        ["type1"] + ["type3"] * 5 + ["type4"]
    )


def test_variant_mismatch():
    curve = outer_smooth(build_plat_diagram(ConwayWord((2, 2, 2))))
    with pytest.raises(VariantMismatchError):
        strip_decompose(curve, "f3")
    with pytest.raises(VariantMismatchError):
        strip_decompose(bigon_reduce(curve), "f2")


@given(words.filter(lambda w: all(b % 2 == 0 for b in w.b_entries)), st.sampled_from(["crossing", "region", "fine"]))
def test_strip_invariants(word, granularity):
    curve = outer_smooth(build_plat_diagram(word))
    for variant in ("f2", "f3"):
        c = curve if variant == "f2" else bigon_reduce(curve)
        decomposition = strip_decompose(c, variant, granularity)
        assert decomposition.strips[0].kind == "type1"
        assert decomposition.strips[-1].kind == "type4"
        # one Type 2 strip per vertical twist region in f2, one per tangency in f3
        type2 = _count(decomposition.strips, "type2")
        assert type2 == (word.m if variant == "f2" else sum(map(abs, word.b_entries)) // 2)
        # per crossing, one Type 3 strip per smoothed crossing: the separating
        # segments number sum|a| + (Type 2 strips) + 1
        if granularity == "crossing":
            assert len(decomposition.strips) - 1 == sum(map(abs, word.a_entries)) + type2 + 1


def test_granularity_only_changes_type3():
    curve = outer_smooth(build_plat_diagram(ConwayWord((3, 2, 3))))
    per_crossing = strip_decompose(curve, "f2", "crossing")
    per_region = strip_decompose(curve, "f2", "region")
    fine = strip_decompose(curve, "f2", "fine")
    assert [_count(d.strips, "type2") for d in (per_crossing, per_region, fine)] == [1, 1, 1]
    assert sum(1 for s in per_region.strips if s.kind == "type3") == 2
    assert sum(1 for s in per_crossing.strips if s.kind == "type3") == 6
    # fine: the six crossing-level strips plus one filler after each interior strip
    assert sum(1 for s in fine.strips if s.kind == "type3") == 13


# --- run-length sequences ----------------------------------------------------

# the first and the last column are equal but distinct objects
POOL = (Column("pass", 1), Column("crossing", -2), Column("pass", 1))
# runs of a pool index with a count, plain or filled (``_Filled``, at
# least two items); a run of count 0 is dropped, since a sequence takes
# its counts as positive
run_lists = st.tuples(st.just(False), st.lists(st.tuples(st.integers(0, 2), st.integers(0, 4)), max_size=8)) | st.tuples(
    st.just(True), st.lists(st.tuples(st.integers(0, 2), st.integers(1, 4)), min_size=2, max_size=8)
)
bounds = st.none() | st.integers(-30, 30)


def _sequence(filled, runs, pool=POOL):
    """The run-length sequence of ``runs`` over ``pool``, and its tuple;
    filled, ``pool[0]`` follows each item but the first and the last."""
    runs = [(pool[k], n) for k, n in runs if n]
    items = tuple(x for x, n in runs for _ in range(n))
    if not filled:
        return _RunSeq(runs), items
    return _Filled(runs, filler=pool[0]), (items[0], *(y for x in items[1:-1] for y in (x, pool[0])), items[-1])


@given(run_lists, bounds, bounds, st.none() | st.sampled_from([1, 2, 3, -1, -2]))
def test_run_length_sequence_behaves_as_its_tuple(runs, start, stop, step):
    filled, runs = runs
    seq, flat = _sequence(filled, runs)
    assert len(seq) == len(flat)
    assert list(seq) == list(flat)
    assert all(seq[i] is flat[i] for i in range(-len(flat), len(flat)))
    for i in (len(flat), -len(flat) - 1):
        with pytest.raises(IndexError):
            seq[i]
    assert seq[start:stop:step] == flat[start:stop:step]
    assert seq == flat and flat == seq and not seq != flat
    assert hash(seq) == hash(flat)
    assert repr(seq) == repr(flat)
    regrouped = _RunSeq(_runs(flat))
    assert seq == regrouped and regrouped == seq and regrouped.runs == tuple(_runs(flat))
    longer = [*seq.runs, (POOL[1], 1)]
    assert seq != flat + (POOL[1],) and (_Filled(longer, filler=POOL[0]) if filled else _RunSeq(longer)) != seq
    # runs that line up: equal but distinct objects are equal, another object is not
    assert seq == _sequence(filled, runs, (POOL[2], POOL[1], POOL[0]))[0]
    if flat:
        changed = (Column("tangency", 1),) + flat[1:]
        assert seq != changed and seq != _RunSeq(_runs(changed))
        assert seq != _sequence(filled, runs, (POOL[1], POOL[0], POOL[1]))[0]  # every item changes kind


def test_a_run_length_sequence_equals_no_list():
    # as a tuple equals no list, whatever it holds
    seq = _RunSeq([(POOL[0], 2), (POOL[1], 1)])
    assert seq.__eq__(list(seq)) is NotImplemented
    assert seq != list(seq) and not seq == list(seq)


def test_only_a_plain_sequence_hands_out_its_runs_as_the_runs_of_its_items():
    # a filled sequence's runs leave the filler out, so taking them for its
    # items' would lose every filler unseen: its item runs are written out
    seq = _Filled([(POOL[0], 1), (POOL[1], 2), (POOL[0], 1)], filler=POOL[2])
    assert _runs_of(seq) == _runs(tuple(seq)) == [(POOL[0], 1), (POOL[1], 1), (POOL[2], 1), (POOL[1], 1), (POOL[2], 1), (POOL[0], 1)]
    plain = _RunSeq(_runs(tuple(seq)))
    assert _runs_of(plain) is plain.runs


# words of every size, b entries even, so that both variants assemble
# unless the fraction is degenerate; C(1) and C(-1) have one interior strip
small_words = (
    st.lists(st.integers(-5, 5).filter(bool), min_size=1, max_size=9)
    .filter(lambda entries: len(entries) % 2 == 1)
    .map(lambda entries: ConwayWord(tuple(2 * e if i % 2 else e for i, e in enumerate(entries))))
)


@given(small_words, st.sampled_from(VARIANTS), bounds, bounds, st.none() | st.sampled_from([1, 2, 3, -1, -2]))
@example(ConwayWord((1,)), "f2", None, None, None)
@example(ConwayWord((-1,)), "f3", -3, None, -1)
@example(ConwayWord((2,)), "f2", 1, -1, None)
def test_a_fine_sequence_behaves_as_the_crossing_items_with_a_filler_after_each_interior_one(word, variant, start, stop, step):
    # the fine strips, and the fine blocks where the word assembles, against
    # the crossing items with an independently built filler interleaved
    fine, crossing = (StripDecomposition(word, variant, granularity) for granularity in ("fine", "crossing"))
    cases = [(fine.strips, tuple(crossing.strips), Strip("type3"))]
    try:
        models = [assemble_stable_map(word, variant, granularity) for granularity in ("fine", "crossing")]
    except DegenerateFractionError:
        pass
    else:
        assert models[0].strips.strips == fine.strips
        cases.append((models[0].blocks, tuple(models[1].blocks), BlockMap("type3", "F", "F", (), (1, 2, 3, 4))))
    for seq, items, filler in cases:
        flat = (items[0], *(y for x in items[1:-1] for y in (x, filler)), items[-1])
        assert type(seq) is _Filled and seq.filler is not filler
        assert len(seq) == len(flat) == 2 * len(items) - 2
        assert list(seq) == list(flat) and list(map(type, seq)) == list(map(type, flat))
        assert all(seq[i] == flat[i] for i in range(-len(flat), len(flat)))
        for i in (len(flat), -len(flat) - 1, 10**6):
            with pytest.raises(IndexError):
                seq[i]
        assert seq[start:stop:step] == flat[start:stop:step]
        plain, other = _RunSeq(_runs(flat)), _Filled(list(seq.runs), filler=filler)
        for equal in (flat, plain, other, seq):
            assert seq == equal and equal == seq and not seq != equal and not equal != seq
        assert hash(seq) == hash(flat) == hash(plain) == hash(other)
        assert repr(seq) == repr(flat) == repr(plain)
        for differ in (items, _RunSeq(_runs(items)), flat[:-1], _Filled(list(seq.runs), filler=items[0])):
            assert seq != differ and differ != seq and not seq == differ and not differ == seq


def test_decompositions_that_share_a_region_hold_one_strip(cold):
    # the strips come from one process-wide cache keyed on (kind, column runs)
    first = cold(lambda: StripDecomposition(ConwayWord((5, 4, 3)), "f2", "region").strips)
    second = StripDecomposition(ConwayWord((3, 4, 7, -2, 5)), "f2", "region").strips
    assert [strip.param for strip in first] == [0, 5, 4, 3, 0]
    # the b-region 4, and the a-regions 3 and 5, each at another place
    assert first[2] is second[2] and first[3] is second[1] and first[1] is second[5]
