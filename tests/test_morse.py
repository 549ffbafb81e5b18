"""Cross-sections, blocks, assembly, censuses, and fold traces."""

import tracemalloc
from dataclasses import fields, replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import acyclic_oracle, oracle_trace, plat_component_count_of_entries, random_even_b_words, regrouped_runs
from twobridge.conway import ConwayWord, component_count, fraction_of, parse_conway, transform
from twobridge import curves, morse
from twobridge.curves import Column, Strip, _Filled, _RunSeq
from twobridge.errors import (
    DegenerateFractionError,
    EvenBRequiredError,
    InvalidStripVariantError,
    InvariantViolationError,
    OddTwistError,
    TraceMismatchError,
)
from twobridge.morse import (
    LEAVES,
    REEB_EDGES,
    SADDLES,
    BlockMap,
    DefiniteFoldTrace,
    FiberEvent,
    StableMapModel,
    _walk,
    assemble_stable_map,
    build_block,
    fiber_census,
    trace_definite_folds,
    validate_model,
)

entry = st.integers(min_value=-8, max_value=8).filter(lambda e: e != 0)
even_b_words = (
    st.lists(entry, min_size=1, max_size=9)
    .filter(lambda l: len(l) % 2 == 1)
    .filter(lambda l: all(b % 2 == 0 for b in l[1::2]))
    .map(lambda l: ConwayWord(tuple(l)))
)


def test_standard_cross_section_shape():
    assert len(LEAVES) == 4
    assert len(SADDLES) == 2
    assert len(LEAVES) - len(SADDLES) == 2
    assert {v for edge in REEB_EDGES for v in edge} == {*LEAVES, *SADDLES}
    assert acyclic_oracle(REEB_EDGES)


def test_tree_check_is_keyed_on_shape():
    cyclic = ((1, "s_hi"), (2, "s_hi"), ("s_hi", 1), ("s_lo", 3), ("s_lo", 4))
    assert acyclic_oracle(REEB_EDGES)
    assert not acyclic_oracle(cyclic)


def test_a_cross_section_is_its_tag():
    # a block stores its kind, section tags, events and permutation; its slices are read off them
    assert [f.name for f in fields(BlockMap)] == ["kind", "entry", "exit", "events", "permutation"]
    block = build_block(Strip("type2", (Column("crossing", 1),) * 2, param=2), "f2", index=4)
    assert (block.entry, block.exit) == ("F4", "F5")
    assert block.slices == ("F4", "F4'", "F5''", "F5")


# --- blocks -------------------------------------------------------------------

def test_type2_f2_block_events():
    strip = Strip("type2", (Column("crossing", 1), Column("crossing", 1)), param=2)
    block = build_block(strip, "f2", index=4)
    assert [e.kind for e in block.events] == ["II2", "II2"]
    assert [e.slice for e in block.events] == ["F4'", "F5''"]
    assert block.permutation == (1, 2, 3, 4)
    assert len(block.slices) == 4


def test_type2_f3_block_event():
    strip = Strip("type2", (Column("tangency", 1),), param=1)
    block = build_block(strip, "f3", index=4)
    assert [e.kind for e in block.events] == ["II3"]
    assert block.events[0].slice == "F5''"
    assert len(block.slices) == 3


def test_type3_block_no_events():
    strip = Strip("type3", (Column("pass", 1),), param=1)
    for variant in ("f2", "f3"):
        block = build_block(strip, variant)
        assert block.events == ()
        assert block.permutation == (1, 3, 2, 4)


def test_cap_blocks():
    # a Type 1 cap has only its exit section, a Type 4 cap only its entry
    for kind, sections in (("type1", (None, "F")), ("type4", ("F", None))):
        block = build_block(Strip(kind), "f2")
        assert block.events == ()
        assert block.permutation == (1, 2, 3, 4)
        assert (block.entry, block.exit) == sections
        assert block.slices == ("F",)


def test_invalid_strip_variant():
    tangency_strip = Strip("type2", (Column("tangency", 1),), param=1)
    crossing_strip = Strip("type2", (Column("crossing", 1), Column("crossing", 1)), param=2)
    crossing = Column("crossing", 1)
    mixed_strip = Strip("type2", (crossing,) * 3 + (Column("tangency", 1),) + (crossing,) * 3, param=7)
    with pytest.raises(InvalidStripVariantError):
        build_block(tangency_strip, "f2")
    with pytest.raises(InvalidStripVariantError):
        build_block(crossing_strip, "f3")
    with pytest.raises(InvalidStripVariantError):
        build_block(mixed_strip, "f2")


def test_build_block_rejects_an_unknown_variant_or_strip_kind():
    with pytest.raises(ValueError, match="unknown variant 'f4'"):
        build_block(Strip("type1"), "f4")
    with pytest.raises(InvalidStripVariantError, match="unknown strip kind 'type5'"):
        build_block(Strip("type5"), "f2")


def test_euler_holds_on_every_slice_of_every_block():
    # every slice is a tag, and carries the one standard tree
    assert len(LEAVES) - len(SADDLES) == 2
    word = ConwayWord((2, 4, 2, -2, 2))
    for variant in ("f2", "f3"):
        model = assemble_stable_map(word, variant)
        assert all(type(tag) is str for block in model.blocks for tag in block.slices)


# --- assembly -----------------------------------------------------------------

def test_assemble_f2_census():
    model = assemble_stable_map(ConwayWord((3, 2, 3)), "f2")
    assert (model.census.ii2, model.census.ii3) == (2, 0)


def test_assemble_f3_census():
    model = assemble_stable_map(ConwayWord((3, 2, 3)), "f3")
    assert (model.census.ii2, model.census.ii3) == (0, 1)


def test_assemble_requires_even_b():
    for _ in range(2):  # an error is never kept as the last model
        with pytest.raises(EvenBRequiredError):
            assemble_stable_map(ConwayWord((2, 1, 2)), "f2")


def test_assembly_keeps_the_last_model():
    word = ConwayWord((3, 2, 3))
    model = assemble_stable_map(word, "f2")
    assert assemble_stable_map(ConwayWord((3, 2, 3)), "f2", "crossing") is model
    assert assemble_stable_map(word, "f2", "region") is not model
    assert assemble_stable_map(word, "f2") == model


@pytest.mark.parametrize("variant, granularity", [(["f2"], "crossing"), ("f2", {"crossing"}), ("f4", "crossing")])
def test_assemble_rejects_unknown_arguments_that_need_not_hash(variant, granularity):
    with pytest.raises(ValueError, match="unknown"):
        assemble_stable_map(ConwayWord((3, 2, 3)), variant, granularity)


def test_assembly_checks_its_census_against_the_closed_form(cold, monkeypatch):
    # a catalogue whose f2 Type 2 blocks lost their events: the trace holds, the census does not
    for key, block in morse._CATALOGUE.items():
        if key[0] == "type2" and key[2] == "f2":
            monkeypatch.setitem(morse._CATALOGUE, key, replace(block, events=()))
    with pytest.raises(InvariantViolationError, match=r"^census \(0, 0\) != expected \(2, 0\)$"):
        cold(assemble_stable_map, ConwayWord((3, 2, 3)), "f2")


def test_assemble_torus_word():
    model = assemble_stable_map(ConwayWord((5,)), "f2")
    assert (model.census.ii2, model.census.ii3) == (0, 0)


def test_fiber_census_recomputes():
    model = assemble_stable_map(ConwayWord((2, 2, 2, 2, 2)), "f2")
    census = fiber_census(model)
    assert (census.ii2, census.ii3) == (4, 0)
    assert census == model.census


def test_f3_census_sums_vertical_crossings():
    model = assemble_stable_map(ConwayWord((2, 4, 2, -2, 2)), "f3")
    assert (model.census.ii2, model.census.ii3) == (0, 3)


def test_block_gluing_is_exact():
    model = assemble_stable_map(ConwayWord((2, 2, 2)), "f2")
    for left, right in zip(model.blocks, model.blocks[1:]):
        if left.exit is not None and right.entry is not None:
            assert left.exit is right.entry


def test_figure_eight_model():
    # C(1,2,-2) presents 5/3: one component, and the f2 model carries
    # exactly two double-saddle fibers
    model = assemble_stable_map(ConwayWord((1, 2, -2)), "f2")
    assert model.trace.count == 1
    assert (model.census.ii2, model.census.ii3) == (2, 0)


def test_whitehead_model():
    # C(2,2,-2) presents 8/3: two components, one II3 fiber in the f3 model
    model = assemble_stable_map(ConwayWord((2, 2, -2)), "f3")
    assert model.trace.count == 2
    assert (model.census.ii2, model.census.ii3) == (0, 1)


def test_trace_matches_plat_oracle():
    word = ConwayWord((5,))
    model = assemble_stable_map(word, "f2")
    trace = trace_definite_folds(model)
    assert trace.count == plat_component_count_of_entries(word.entries)
    assert trace.count == component_count(fraction_of(word))


@pytest.mark.parametrize("granularity", ["crossing", "region", "fine"])
def test_validate_model_passes(granularity):
    model = assemble_stable_map(ConwayWord((2, -4, 2)), "f3", granularity)
    validate_model(model)
    # the same blocks held as a tuple or a list, which no run-length sequence equals
    for blocks in (tuple(model.blocks), list(model.blocks)):
        validate_model(replace(model, blocks=blocks))


def test_a_model_is_its_strips_and_blocks():
    # the word, variant and granularity are read off the strips; the trace and census off the blocks
    assert [f.name for f in fields(StableMapModel)] == ["strips", "blocks"]
    other = assemble_stable_map(ConwayWord((2, 2, -2)), "f3", "fine")
    model = assemble_stable_map(ConwayWord((3, 2, 3)), "f2")
    moved = replace(model, blocks=other.blocks)
    assert moved.trace.blocks is other.blocks and (moved.trace, moved.census) == (other.trace, other.census)
    assert (moved.census.ii2, moved.census.ii3) == (0, 1) != (model.census.ii2, model.census.ii3)
    relabelled = replace(model, strips=other.strips)
    assert (relabelled.word, relabelled.variant, relabelled.granularity) == (other.word, "f3", "fine")


def test_validate_model_rejects_tampered_census():
    # the census is read off the blocks, so it is tampered through them:
    # the Type 2 block loses one of its two II2 events
    model = assemble_stable_map(ConwayWord((2, 2, 2)), "f2")
    blocks = list(model.blocks)
    assert blocks[3].kind == "type2" and len(blocks[3].events) == 2
    blocks[3] = replace(blocks[3], events=blocks[3].events[:1])
    tampered = replace(model, blocks=tuple(blocks))
    assert tampered.census.ii2 == model.census.ii2 - 1
    with pytest.raises(InvariantViolationError, match="^block 3: events is "):
        validate_model(tampered)


def test_validate_model_rejects_tampered_component_count():
    # a Type 3 block that no longer crosses strands 2 and 3 joins the two
    # definite fold circles into one
    model = assemble_stable_map(ConwayWord((2, 2, 2)), "f2")
    blocks = list(model.blocks)
    assert blocks[1].kind == "type3"
    blocks[1] = replace(blocks[1], permutation=(1, 2, 3, 4))
    tampered = replace(model, blocks=tuple(blocks))
    assert tampered.census.definite_components == model.census.definite_components - 1
    with pytest.raises(TraceMismatchError, match="has 1 components, fraction 12/5 demands 2"):
        validate_model(tampered)


def test_validate_model_rejects_altered_permutation():
    model = assemble_stable_map(ConwayWord((3, 2, 3)), "f2")
    j = next(i for i, block in enumerate(model.blocks) if block.kind == "type2")
    assert model.blocks[j].permutation == (1, 2, 3, 4)
    blocks = list(model.blocks)
    blocks[j] = replace(blocks[j], permutation=(2, 1, 3, 4))
    assert len(oracle_trace(blocks)) != model.trace.count
    with pytest.raises(TraceMismatchError):
        validate_model(replace(model, blocks=tuple(blocks)))


def test_sections_share_one_standard_cross_section():
    model = assemble_stable_map(ConwayWord((5, 2, 5)), "f2")
    sections = [section for block in model.blocks for section in (block.entry, block.exit) if section is not None]
    assert len(sections) == 2 * (len(model.blocks) - 1)
    assert all(section is sections[0] for section in sections)
    assert sections[0] == "F"


def test_models_share_their_blocks_and_sections():
    # one block per strip kind and crossing parity, one section per tag
    words = [ConwayWord(entries) for entries in random_even_b_words(20250808, 200)]
    words += [parse_conway("C(3,200,3)"), parse_conway("C(-3,-200,-3)"), ConwayWord((3, 2) * 100 + (3,))]
    for word in words:
        for variant in ("f2", "f3"):
            for granularity in ("crossing", "region", "fine"):
                model = assemble_stable_map(word, variant, granularity)
                blocks = {id(block): block for block in model.blocks}
                sections = {id(s) for block in blocks.values() for s in block.slices}
                assert len(blocks) <= 5 and len(sections) <= 3, (word, variant, granularity)


def test_validate_model_checks_a_block_swapped_into_a_shared_run():
    model = assemble_stable_map(ConwayWord((5, 2, 5)), "f2")
    block = model.blocks[2]
    assert block.kind == "type3" and model.blocks[3] is block
    blocks = list(model.blocks)
    blocks[3] = replace(block, events=(FiberEvent("II2", "G'"),))
    assert blocks[3].slices == ("F", "G'", "F")
    with pytest.raises(InvariantViolationError):
        validate_model(replace(model, blocks=tuple(blocks)))


# Every slice is the standard tree, the module's, so a slice swapped in
# differs by its tag: another relative tag, a positioned one, the exit side's.
@pytest.mark.parametrize("tag", ["G'", "F4'", "F''"])
def test_validate_model_rejects_an_event_slice_that_is_not_a_tree(tag):
    model = assemble_stable_map(ConwayWord((3, 2, 3)), "f2")
    blocks = list(model.blocks)
    block = blocks[4]
    assert block.kind == "type2" and block.slices[1] == "F'"
    blocks[4] = replace(block, events=(replace(block.events[0], slice=tag), *block.events[1:]))
    assert blocks[4].slices == ("F", tag, "F''", "F")
    with pytest.raises(InvariantViolationError, match="block 4: events is .*, the catalogued type2 block has "):
        validate_model(replace(model, blocks=tuple(blocks)))


def test_validate_model_rejects_an_event_slice_that_was_dropped():
    model = assemble_stable_map(ConwayWord((3, 2, 3)), "f2")
    blocks = list(model.blocks)
    block = blocks[4]
    assert block.slices == ("F", "F'", "F''", "F")
    blocks[4] = replace(block, events=block.events[:1])
    assert blocks[4].slices == ("F", "F'", "F")
    with pytest.raises(InvariantViolationError, match="block 4: events is .*, the catalogued type2 block has "):
        validate_model(replace(model, blocks=tuple(blocks)))


@pytest.mark.parametrize("variant", ["f2", "f3"])
def test_validate_model_rejects_a_census_that_mixes_fiber_types(variant):
    # C(3,2,3,2,3) has two Type 2 blocks in either variant; one of them is
    # taken from the other variant's model, so the census counts both II2 and II3
    word = ConwayWord((3, 2, 3, 2, 3))
    model = assemble_stable_map(word, variant)
    other = assemble_stable_map(word, "f3" if variant == "f2" else "f2")
    j = next(i for i, block in enumerate(model.blocks) if block.kind == "type2")
    blocks = list(model.blocks)
    blocks[j] = other.blocks[j]
    tampered = replace(model, blocks=tuple(blocks))
    assert tampered.census.ii2 and tampered.census.ii3
    with pytest.raises(InvariantViolationError, match=f"^block {j}: events is "):
        validate_model(tampered)


def test_validate_model_rejects_a_positioned_event_tag():
    # build_block(..., index=4) names the event slices F4' and F5'', which
    # no document position can name
    model = assemble_stable_map(ConwayWord((3, 2, 3)), "f2")
    assert model.blocks[4].kind == "type2"
    section = model.blocks[0].exit
    blocks = list(model.blocks)
    block = build_block(model.strips.strips[4], "f2", index=4)
    blocks[4] = replace(block, entry=section, exit=section)
    with pytest.raises(InvariantViolationError, match=r"block 4: events is \(FiberEvent\(kind='II2', slice=\"F4'\"\)"):
        validate_model(replace(model, blocks=tuple(blocks)))


def test_validate_model_rejects_a_positioned_block_for_its_sections():
    # build_block(..., index=4) has sections F4 and F5, not the model's one
    model = assemble_stable_map(ConwayWord((3, 2, 3)), "f2")
    blocks = list(model.blocks)
    blocks[4] = build_block(model.strips.strips[4], "f2", index=4)
    with pytest.raises(InvariantViolationError, match=r"^block 4: entry is 'F4', the catalogued type2 block has 'F'$"):
        validate_model(replace(model, blocks=tuple(blocks)))


@pytest.mark.parametrize(
    "field, value, error",
    [
        ("word", ConwayWord((2, 2, 2)), "^blocks and strips out of step$"),
        ("variant", "f3", r"^block 4: events is \(FiberEvent\(kind='II2', slice=\"F'\"\), "),
        ("granularity", "fine", "^blocks and strips out of step$"),
    ],
)
def test_validate_model_rejects_a_model_whose_fields_disagree_with_its_blocks(field, value, error):
    # the model reads its word, variant and granularity off its strips, and
    # the strips are those of their arguments, so relabelling them puts the
    # blocks out of step with the strips, or unequal to the assembly's
    model = assemble_stable_map(ConwayWord((3, 2, 3)), "f2")
    tampered = replace(model, strips=replace(model.strips, **{field: value}))
    assert getattr(tampered, field) == value and tampered.blocks is model.blocks
    with pytest.raises(InvariantViolationError, match=error):
        validate_model(tampered)


@pytest.mark.parametrize("name", [f.name for f in fields(BlockMap)] + ["slices"])
def test_validate_model_rejects_any_field_of_a_block_taken_from_another_catalogued_block(name):
    # C(5,2,5) f2: blocks 1-5 are one run of one Type 3 block
    model = assemble_stable_map(ConwayWord((5, 2, 5)), "f2")
    runs = list(model.blocks.runs)
    block, count = runs[1]
    assert block.kind == "type3" and count == 5
    value = next(getattr(other, name) for other in morse._CATALOGUE.values() if getattr(other, name) != getattr(block, name))
    if name == "slices":  # a property: take the sections and events that give it
        other = next(other for other in morse._CATALOGUE.values() if other.slices == value)
        bad = replace(block, entry=other.entry, events=other.events, exit=other.exit)
        assert bad.slices == value
        # the error names the first stored field that differs
        name = next(f for f in ("entry", "events", "exit") if getattr(bad, f) != getattr(block, f))
        value = getattr(bad, name)
    else:
        bad = replace(block, **{name: value})
    blocks = list(model.blocks)
    blocks[3] = bad  # one block inside the run, in a tuple
    runs[1] = (bad, count)  # the whole run
    for tampered, index in ((tuple(blocks), 3), (_RunSeq(runs), 1)):
        if name == "permutation":  # the identity: the trace, taken first, loses a component
            with pytest.raises(TraceMismatchError, match="trace has 1 components"):
                validate_model(replace(model, blocks=tampered))
            continue
        with pytest.raises(InvariantViolationError) as err:
            validate_model(replace(model, blocks=tampered))
        assert str(err.value).startswith(f"block {index}: {name} is {value!r}, the catalogued type3 block has ")


def test_every_slice_of_every_catalogued_block_is_the_standard_tree():
    assert set(morse._CATALOGUE) == {(kind, parity, variant) for kind in ("type1", "type2", "type3", "type4") for parity in (0, 1) for variant in ("f2", "f3")}
    # one slice per cap, two per Type 3 block, and a Type 2 block's events between its sections
    widths = {"type1": 1, "type3": 2, "type4": 1, ("type2", "f2"): 4, ("type2", "f3"): 3}
    for (kind, _, variant), block in morse._CATALOGUE.items():
        assert all(type(tag) is str for tag in block.slices)
        assert len(block.slices) == widths.get(kind, widths.get((kind, variant)))


def test_positioned_blocks_are_not_kept():
    strips = [Strip("type2", (Column("crossing", 1),) * 2, param=2), Strip("type3", (Column("pass", 1),), param=1)]
    for strip in strips:  # each strip's catalogue key is checked once per process
        build_block(strip, "f2", index=0)
    tracemalloc.start()
    try:
        for j in range(2000):
            for strip in strips:
                build_block(strip, "f2", index=j)
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert current < 10_000


def test_validate_model_rejects_blocks_out_of_step_with_the_strips():
    model = assemble_stable_map(ConwayWord((3, 2, 3)), "f2")
    blocks = list(model.blocks)
    del blocks[2]  # one Type 3 block fewer: every block still lies on a strip of its kind
    with pytest.raises(InvariantViolationError, match="blocks and strips out of step"):
        validate_model(replace(model, blocks=tuple(blocks)))


def test_validate_model_rejects_blocks_of_another_granularity_under_the_strips_of_the_word():
    # the fine blocks of C(3,2,3) with the crossing strips of C(3,2,3)
    model = assemble_stable_map(ConwayWord((3, 2, 3)), "f2")
    tampered = replace(assemble_stable_map(model.word, "f2", "fine"), strips=model.strips)
    assert (tampered.word, tampered.granularity) == (model.word, "crossing")
    with pytest.raises(InvariantViolationError, match="^blocks and strips out of step$"):
        validate_model(tampered)
    # the blocks of the mirror-signed word are the word's own: a block
    # knows the parity of its strip's crossings, not their sign
    mirrored = replace(assemble_stable_map(ConwayWord((-3, 2, 3)), "f2"), strips=model.strips)
    assert mirrored == model
    validate_model(mirrored)


def test_validate_model_rejects_a_word_that_does_not_decompose():
    # C(2,3,2) has an odd vertical twist count, so it has no assembly; its
    # f2 strips match the blocks of C(2,2,2) in number and in trace
    model = assemble_stable_map(ConwayWord((2, 2, 2)), "f2")
    word = ConwayWord((2, 3, 2))
    tampered = replace(model, strips=replace(model.strips, word=word))
    assert tampered.word == word and len(tampered.strips.strips) == len(model.blocks)
    with pytest.raises(InvariantViolationError, match="^the word does not decompose: "):
        validate_model(tampered)
    # its f3 strips cannot be built
    with pytest.raises(OddTwistError, match="^region 1 has 3 double points; pairing impossible$"):
        replace(assemble_stable_map(model.word, "f3").strips, word=word)


def test_trace_rejects_blocks_that_lose_a_strand():
    # a middle block that loses a strand, or an end block that is no cap
    model = assemble_stable_map(ConwayWord((3, 2, 3)), "f2")
    cases = ((2, "permutation", (1, 1, 3, 4), "block 2 permutation"), (0, "kind", "type3", "a cap block at either end"), (-1, "kind", "type3", "a cap block at either end"))
    for j, field, value, message in cases:
        blocks = list(model.blocks)
        blocks[j] = replace(blocks[j], **{field: value})
        with pytest.raises(TraceMismatchError, match=message):
            trace_definite_folds(replace(model, blocks=tuple(blocks)))
        with pytest.raises(TraceMismatchError, match=message):
            DefiniteFoldTrace(count=2, blocks=tuple(blocks)).components  # a hand-built trace


def test_validate_model_rejects_a_cached_trace_over_blocks_that_lose_a_strand():
    # one Type 3 run of three blocks loses a strand; the trace is read off the runs
    model = assemble_stable_map(ConwayWord((3, 2, 3)), "f2")
    runs = list(model.blocks.runs)
    assert runs[1][0].kind == "type3" and runs[1][1] == 3
    runs[1] = (replace(runs[1][0], permutation=(1, 1, 3, 4)), 3)
    tampered = replace(model, blocks=_RunSeq(runs))
    with pytest.raises(TraceMismatchError, match="block 1 permutation"):
        validate_model(tampered)


def test_hashing_a_trace_does_not_write_out_its_components(cold):
    model = cold(assemble_stable_map, ConwayWord((3, 2, 3)), "f2")
    assert hash(model.trace) == hash(DefiniteFoldTrace(count=model.trace.count, blocks=tuple(model.blocks)))
    assert "components" not in vars(model.trace)


@pytest.mark.parametrize("count", [0, 1])
def test_a_trace_over_fewer_than_two_blocks_needs_a_cap_at_either_end(count):
    blocks = (assemble_stable_map(ConwayWord((3, 2, 3)), "f2").blocks[0],) * count
    with pytest.raises(TraceMismatchError, match="a cap block at either end"):
        _walk(blocks)
    with pytest.raises(TraceMismatchError, match="a cap block at either end"):
        DefiniteFoldTrace(count=1, blocks=blocks).components  # a hand-built trace


@given(even_b_words, st.sampled_from(["crossing", "region", "fine"]), st.sampled_from(["f2", "f3"]))
def test_trace_matches_adjacency_oracle(word, granularity, variant):
    try:
        model = assemble_stable_map(word, variant, granularity)
    except DegenerateFractionError:
        return
    assert model.trace.components == oracle_trace(model.blocks)
    assert model.census.indefinite_circles == 1


@given(even_b_words)
def test_census_formulas_hold(word):
    sum_b = sum(abs(b) for b in word.b_entries)
    try:
        f2 = assemble_stable_map(word, "f2")
    except Exception as err:  # degenerate fractions only
        from twobridge.errors import DegenerateFractionError

        assert isinstance(err, DegenerateFractionError)
        return
    f3 = assemble_stable_map(word, "f3")
    assert (f2.census.ii2, f2.census.ii3) == (2 * word.m, 0)
    assert (f3.census.ii2, f3.census.ii3) == (0, sum_b // 2)
    # weighted sums: the f2 model never exceeds the f3 model
    assert 2 * word.m <= sum_b or word.m == 0
    assert f2.trace.count == f3.trace.count == component_count(fraction_of(word))


@given(even_b_words, st.sampled_from(["crossing", "region", "fine"]))
def test_census_invariant_under_granularity(word, granularity):
    try:
        base = assemble_stable_map(word, "f2")
        other = assemble_stable_map(word, "f2", granularity)
    except Exception as err:
        from twobridge.errors import DegenerateFractionError

        assert isinstance(err, DegenerateFractionError)
        return
    assert base.census == other.census


# --- run-level trace and checks -----------------------------------------------

permutations = st.permutations([1, 2, 3, 4]).map(tuple)
middle_runs = st.lists(st.tuples(permutations, st.integers(1, 7)), max_size=8) | st.tuples(
    permutations, permutations, st.integers(1, 12)
).map(lambda t: [(t[0], 1), (t[1], 1)] * t[2])  # alternating runs of one, as fine granularity makes


@given(middle_runs, st.integers(1, 3))
def test_run_level_trace_matches_adjacency_oracle(runs, width):
    model = assemble_stable_map(ConwayWord((3, 2, 3)), "f2")
    cap, middle, end = model.blocks[0], model.blocks[1], model.blocks[-1]
    blocks = _RunSeq([(cap, 1), *((replace(middle, permutation=p), n) for p, n in runs), (end, 1)])
    expected = oracle_trace(tuple(blocks))
    # the same blocks regrouped into runs of at most ``width``, and with the
    # identity filler after each middle block, which adds sections, not components
    filled = _Filled(blocks.runs, filler=build_block(Strip("type3"), "f2"))
    for seq, components in ((blocks, expected), (tuple(blocks), expected), (_RunSeq(regrouped_runs(blocks, width)), expected), (filled, oracle_trace(tuple(filled)))):
        trace = _walk(seq)[0]
        assert trace.count == len(components) == len(expected)
        assert trace.components == components


TAMPERS = ("kind", "slice", "permutation", "strand")


@given(
    st.sampled_from(["C(3,2,3)", "C(2,-4,2,2,-3)", "C(-5,-2,-3)"]),
    st.sampled_from(["f2", "f3"]),
    st.sampled_from(["crossing", "region", "fine"]),
    st.data(),
)
def test_validate_model_rejects_a_run_swapped_for_a_bad_block(text, variant, granularity, data):
    model = assemble_stable_map(parse_conway(text), variant, granularity)
    seq = model.blocks
    runs = list(seq.runs)
    # at fine granularity the filler after each middle block may be the one swapped (i == len(runs))
    i = data.draw(st.integers(0, len(runs) - (seq.filler is None)))
    block = runs[i][0] if i < len(runs) else seq.filler
    tamper = data.draw(st.sampled_from(TAMPERS))
    if tamper == "kind":  # a cap made a middle block, or a middle block of the other kind
        bad = replace(block, kind="type2" if block.kind == "type3" else "type3")
    elif tamper == "slice" and block.events:  # an event slice tagged otherwise, or dropped with its event
        tagged = (*block.events[:-1], replace(block.events[-1], slice="G'"))
        bad = replace(block, events=data.draw(st.sampled_from([tagged, block.events[:-1]])))
    elif tamper == "slice":  # a section tagged otherwise
        bad = replace(block, entry="G") if block.entry else replace(block, exit="G")
    else:  # another permutation, or one that loses a strand
        other = tuple(block.permutation[j - 1] for j in (2, 1, 3, 4))
        bad = replace(block, permutation=other if tamper == "permutation" else (1, 1, 3, 4))
    if i < len(runs):
        runs[i] = (bad, runs[i][1])
    with pytest.raises((InvariantViolationError, TraceMismatchError)):
        validate_model(replace(model, blocks=_RunSeq(runs) if seq.filler is None else _Filled(runs, filler=bad if i == len(runs) else seq.filler)))


# up to 10**5 crossings an entry, each b entry even
large_even_b_words = (
    st.lists(st.integers(-(10**5), 10**5).filter(bool), min_size=1, max_size=9)
    .filter(lambda l: len(l) % 2 == 1)
    .map(lambda l: ConwayWord(tuple(2 * (e // 2) or 2 if i % 2 else e for i, e in enumerate(l))))
)


@given(large_even_b_words, st.sampled_from(["f2", "f3"]))
def test_a_fine_model_is_the_crossing_model_with_a_filler_after_each_interior_strip(word, variant):
    # compared through runs: the crossing model's runs, the filler after each interior item
    try:
        crossing = assemble_stable_map(word, variant)
    except DegenerateFractionError:
        return
    fine = assemble_stable_map(word, variant, "fine")
    assert (fine.census, fine.trace.count) == (crossing.census, crossing.trace.count)
    for ours, theirs, filler in ((fine.strips.strips, crossing.strips.strips, Strip("type3")), (fine.blocks, crossing.blocks, build_block(Strip("type3"), variant))):
        assert type(ours) is _Filled and type(theirs) is _RunSeq and ours.filler == filler
        assert len(ours.runs) == len(theirs.runs) and ours.runs == theirs.runs
        assert len(ours) == 2 * len(theirs) - 2


@given(large_even_b_words)
def test_reversed_and_mirrored_words_give_the_mirrored_models(word):
    # reversing a word reverses its strips and blocks, the caps exchanged;
    # mirroring it keeps the census.  Compared run by run: at fine, the
    # filler follows each interior strip, which the runs leave out.
    try:
        fraction_of(word)
    except DegenerateFractionError:
        return
    caps = {"type1": "type4", "type4": "type1"}
    for variant in ("f2", "f3"):
        for granularity in ("crossing", "region", "fine"):
            model, reverse, mirror = (assemble_stable_map(w, variant, granularity) for w in (word, transform(word, "reverse"), transform(word, "mirror")))
            assert model.census == reverse.census == mirror.census
            kinds = [(caps.get(strip.kind, strip.kind), count) for strip, count in model.strips.strips.runs]
            assert kinds[::-1] == [(strip.kind, count) for strip, count in reverse.strips.strips.runs]
            perms = [(block.permutation, count) for block, count in model.blocks.runs]
            assert perms[::-1] == [(block.permutation, count) for block, count in reverse.blocks.runs]


@pytest.mark.parametrize("granularity", ["crossing", "region", "fine"])
@pytest.mark.parametrize("variant", ["f2", "f3"])
def test_assembly_memory_does_not_grow_with_the_granularity(variant, granularity):
    # fine holds the crossing-level runs, not one run per crossing
    word = parse_conway("C(100000,2,100000)")
    for each in ("crossing", granularity):  # the strips and their keys are kept once per process
        assemble_stable_map(word, variant, each)
    peaks, runs = [], []
    for each in ("crossing", granularity):
        morse._last_model.cache_clear()
        tracemalloc.start()
        try:
            runs.append(len(assemble_stable_map(word, variant, each).blocks.runs))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
            morse._last_model.cache_clear()
    assert runs[1] == runs[0]
    assert peaks[1] < 2 * peaks[0]


@pytest.mark.parametrize("text", ["C(100000,2,100000)", "C(3,2,300000)"])
@pytest.mark.parametrize("variant", ["f2", "f3"])
def test_assembly_memory_does_not_grow_with_the_crossings(text, variant):
    word = parse_conway(text)
    morse._last_model.cache_clear()
    tracemalloc.start()
    try:
        model = assemble_stable_map(word, variant)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        morse._last_model.cache_clear()
    assert model.census.ii2 + model.census.ii3 > 0
    assert peak < 1_000_000


@pytest.mark.parametrize("variant, census", [("f2", (2, 0)), ("f3", (0, 1))])
def test_a_billion_crossing_word_assembles_to_its_closed_form_census(variant, census):
    word = parse_conway("C(1000000000,2,1000000000)")
    model = assemble_stable_map(word, variant)
    got = (model.census.ii2, model.census.ii3, model.census.definite_components, len(model.blocks))
    assert got == (*census, component_count(fraction_of(word)), 2_000_000_003)


def test_hashing_a_model_takes_no_step_per_crossing(cold):
    word = parse_conway("C(1000000000,2,1000000000)")
    assert hash(cold(assemble_stable_map, word, "f2")) == hash(cold(assemble_stable_map, word, "f2"))
    model = assemble_stable_map(ConwayWord((3, 2, 3)), "f2")
    flat = replace(model, blocks=tuple(model.blocks))
    assert flat == model and hash(flat) == hash(model)


def test_the_shared_strips_and_their_keys_stay_within_their_bounds(cold):
    # words with distinct region sizes, two strips each: past maxsize the
    # shared strips hold no more, and what they hold stops growing; the
    # catalogue keys, read off each strip, are kept by build_block alone
    cold(assemble_stable_map, ConwayWord((3, 2, 3)), "f2", "region")
    held = []
    tracemalloc.start()
    try:
        for start in (1, 1501):
            for k in range(start, start + 1500):
                assemble_stable_map(ConwayWord((2 * k + 1, 2 * k, 2 * k + 1)), "f2", "region")
            held.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
        morse._last_model.cache_clear()
    info = curves._strip.cache_info()
    assert info.misses > 2 * info.maxsize and info.currsize == info.maxsize
    assert morse._catalogue_key.cache_info()[:2] == (0, 0) and morse._catalogue_key.cache_info().currsize == 0
    assert held[0] < 2 * 2**20 and abs(held[1] - held[0]) < 128 * 2**10, held
