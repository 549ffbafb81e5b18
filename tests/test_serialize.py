"""Model document export, import, and revalidation."""

import json
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twobridge.conway import ConwayWord, parse_conway
from oracles import model_entries, random_even_b_words, regrouped_runs
from twobridge.curves import GRANULARITIES, Column, Strip, _Filled, _RunSeq, _runs
from twobridge.errors import InvariantViolationError, SchemaError, TraceMismatchError, TwoBridgeError, WordTooLargeError
from twobridge import complexity, morse, serialize
from twobridge.morse import assemble_stable_map, build_block, validate_model
from twobridge.render import render_svg
from twobridge.serialize import export_json, import_json


@pytest.fixture
def model():
    return assemble_stable_map(ConwayWord((3, 2, 3)), "f2")


def test_export_contains_census(model):
    doc = json.loads(export_json(model))
    assert doc["census"]["ii2"] == 2
    assert doc["census"]["ii3"] == 0
    assert doc["schema_version"] == "1"
    assert doc["fraction"] == {"p": 24, "q": 7}
    assert doc["bounds"] == {"smc_upper": 2, "weighted_sum": 2}


def test_export_f3_census():
    model = assemble_stable_map(ConwayWord((3, 2, 3)), "f3")
    doc = json.loads(export_json(model))
    assert doc["census"]["ii2"] == 0
    assert doc["census"]["ii3"] == 1


def test_export_is_deterministic(model):
    assert export_json(model) == export_json(model)


def test_export_numbers_are_integers(model):
    def walk(node):
        if isinstance(node, dict):
            for value in node.values():
                walk(value)
        elif isinstance(node, list):
            for value in node:
                walk(value)
        else:
            assert not isinstance(node, float)

    walk(json.loads(export_json(model)))


def test_roundtrip_identity(model):
    assert import_json(export_json(model)) is model


def test_roundtrip_without_kept_model_or_text(model, cold):
    text = export_json(model)
    back = cold(import_json, text)
    assert back == model and back is not model


@pytest.mark.parametrize("variant", ["f2", "f3"])
@pytest.mark.parametrize("granularity", GRANULARITIES)
def test_cold_roundtrip_over_the_corpus_gives_an_equal_model_and_the_same_bytes(variant, granularity, cold):
    # with nothing kept, import re-assembles and export re-serialises, so
    # this checks that both are deterministic, not that a kept object
    # equals itself
    for entries in random_even_b_words(20250808, 200):
        model = assemble_stable_map(ConwayWord(entries), variant, granularity)
        text = export_json(model)
        back = cold(import_json, text)
        assert back == model and back is not model
        assert cold(export_json, back) == text


def test_kept_model_and_text_are_never_another_threads():
    words = [ConwayWord((k, 2, k)) for k in range(1, 9)]
    expected = {word: export_json(assemble_stable_map(word, "f2")) for word in words}

    def round_trips(word):
        for _ in range(50):
            model = assemble_stable_map(word, "f2")
            text = export_json(model)
            if model.word != word or text != expected[word] or import_json(text) != model:
                return False
        return True

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(words)) as pool:
            results = list(pool.map(round_trips, words, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert results == [True] * len(words)


def test_an_equal_model_finds_the_kept_text(model):
    text = export_json(model)
    morse._last_model.cache_clear()
    again = assemble_stable_map(model.word, model.variant, model.granularity)
    assert again == model and again is not model
    assert export_json(again) is text


def test_tampered_model_exported_after_the_original_rejected(model):
    export_json(model)
    runs = list(model.blocks.runs)
    block, count = runs[1]
    assert block.kind == "type3" and block.permutation == (1, 3, 2, 4)
    runs[1] = (replace(block, permutation=(1, 2, 3, 4)), count)
    tampered = replace(model, blocks=_RunSeq(runs))
    with pytest.raises(InvariantViolationError, match=r"^blocks\[1\]\.permutation: "):
        import_json(export_json(tampered))


def test_export_of_blocks_that_lose_a_strand_raises_when_it_reads_the_census(model):
    runs = list(model.blocks.runs)
    runs[1] = (replace(runs[1][0], permutation=(1, 1, 3, 4)), runs[1][1])
    with pytest.raises(TraceMismatchError, match="block 1 permutation"):
        export_json(replace(model, blocks=_RunSeq(runs)))


def test_roundtrip_identity_across_variants_and_granularity(cold):
    for variant in ("f2", "f3"):
        for granularity in ("crossing", "region", "fine"):
            model = assemble_stable_map(ConwayWord((2, -2, 2)), variant, granularity)
            assert cold(import_json, export_json(model)) == model


def test_tampered_census_rejected(model):
    doc = json.loads(export_json(model))
    doc["census"]["ii2"] = 3
    with pytest.raises(InvariantViolationError):
        import_json(json.dumps(doc))


def test_tampered_permutation_rejected(model):
    doc = json.loads(export_json(model))
    doc["blocks"][1]["permutation"] = [2, 1, 3, 4]
    with pytest.raises(InvariantViolationError):
        import_json(json.dumps(doc))


@pytest.mark.parametrize("events", [5, "F4'", {"kind": "II2"}])
def test_block_events_that_are_not_an_array_rejected(model, events):
    doc = json.loads(export_json(model))
    doc["blocks"][4]["events"] = events
    with pytest.raises(SchemaError, match=r"blocks\[4\]\.events must be an array"):
        import_json(json.dumps(doc))


@pytest.mark.parametrize("permutation", ["1234", {"1": 1, "2": 2, "3": 3, "4": 4}, [1, 2, 3, 4, "x"], [1, 2, 3]])
def test_block_permutation_that_is_not_a_list_of_four_rejected(model, permutation):
    doc = json.loads(export_json(model))
    doc["blocks"][1]["permutation"] = permutation
    with pytest.raises(SchemaError, match=r"blocks\[1\]\.permutation must be a permutation of 1\.\.4"):
        import_json(json.dumps(doc))


def test_export_names_event_slices_by_position():
    model = assemble_stable_map(ConwayWord((2, 4, 2, -2, 2)), "f3")
    blocks = json.loads(export_json(model))["blocks"]
    tags = [(j, event["slice"]) for j, block in enumerate(blocks) for event in block["events"]]
    assert tags == [(j, f"F{j + 1}''") for j, block in enumerate(model.blocks) if block.events]
    assert {event.slice for block in model.blocks for event in block.events} == {"F''"}


def test_export_rejects_a_positioned_event_tag():
    # a standalone block built at index 4 carries F4' and F5'', not the
    # relative tags that the export names by position
    model = assemble_stable_map(ConwayWord((3, 2, 3)), "f2")
    j = next(i for i, block in enumerate(model.blocks) if block.kind == "type2")
    strip = Strip("type2", (Column("crossing", 1),) * 2, param=2)
    blocks = list(model.blocks)
    blocks[j] = build_block(strip, "f2", index=4)
    for width in (0, 1, 2, 3):  # the blocks as a tuple, or as runs of at most ``width`` blocks
        tampered = _RunSeq(regrouped_runs(blocks, width)) if width else tuple(blocks)
        with pytest.raises(InvariantViolationError, match=f"block {j}: event slice \"F4'\""):
            export_json(replace(model, blocks=tampered))


@given(
    st.sampled_from(["C(3,2,3)", "C(2,-4,2,2,-3)", "C(-5,-2,-3)", "C(4,2,2,2,4)", "C(3,4,-3,2,1,2,2)"]),
    st.sampled_from(["f2", "f3"]),
    st.sampled_from(GRANULARITIES),
    st.integers(1, 4),
)
def test_a_model_held_as_any_equal_sequence_exports_and_renders_the_same_bytes(text, variant, granularity, width):
    # its blocks as a tuple or as runs of at most ``width`` items: a fine
    # model's then have no filler of their own, each filler an item
    model = assemble_stable_map(parse_conway(text), variant, granularity)
    for held in (tuple, lambda items: _RunSeq(regrouped_runs(items, width))):
        hand = replace(model, blocks=held(model.blocks))
        assert hand == model
        assert "".join(serialize._export_parts(hand)) == export_json(model)
        assert render_svg(hand) == render_svg(model)
        assert (hand.census, hand.trace.components) == (model.census, model.trace.components)
        validate_model(hand)
    # at fine, a block with events in either cap's place is drawn and named where it sits, filled or not
    for i in (0, -1) if model.blocks.filler is not None else ():
        runs = list(model.blocks.runs)
        runs[i] = (replace(runs[i][0], events=next(block for block in model.blocks if block.events).events), 1)
        filled = replace(model, blocks=_Filled(runs, filler=model.blocks.filler))
        plain = replace(filled, blocks=tuple(filled.blocks))
        assert render_svg(filled) == render_svg(plain)
        assert "".join(serialize._export_parts(filled)) == "".join(serialize._export_parts(plain))
    # a template field in the kind of the last middle block without events,
    # which may follow one with events; a cap's kind is what the trace checks
    j = max(i for i, block in enumerate(model.blocks) if not block.events and block.kind == "type3")
    blocks = list(model.blocks)
    blocks[j] = replace(blocks[j], kind="type{0}")
    for tampered in (tuple(blocks), _RunSeq(regrouped_runs(blocks, width))):
        with pytest.raises(InvariantViolationError, match="template field"):
            serialize._export_parts(replace(model, blocks=tampered))


def test_export_rejects_a_template_field_in_a_block_kind():
    model = assemble_stable_map(ConwayWord((3, 2, 3)), "f3")
    j = next(i for i, block in enumerate(model.blocks) if block.events)
    blocks = list(model.blocks)
    blocks[j] = replace(blocks[j], kind="type{0}")
    with pytest.raises(InvariantViolationError, match="template field"):
        export_json(replace(model, blocks=tuple(blocks)))


def test_truncated_text_rejected(model):
    text = export_json(model)
    with pytest.raises(SchemaError):
        import_json(text[: len(text) // 2])


def test_unknown_field_rejected(model):
    doc = json.loads(export_json(model))
    doc["future_extension"] = True
    with pytest.raises(SchemaError):
        import_json(json.dumps(doc))


def test_missing_field_rejected(model):
    doc = json.loads(export_json(model))
    del doc["strips"]
    with pytest.raises(SchemaError):
        import_json(json.dumps(doc))


def test_wrong_schema_version_rejected(model):
    doc = json.loads(export_json(model))
    doc["schema_version"] = "2"
    with pytest.raises(SchemaError):
        import_json(json.dumps(doc))


def test_bad_granularity_rejected(model):
    doc = json.loads(export_json(model))
    doc["granularity"] = "atomic"
    with pytest.raises(SchemaError):
        import_json(json.dumps(doc))


def test_spliced_document_rejected(model):
    # strips borrowed from a different word's document
    other = assemble_stable_map(ConwayWord((2, -4, 2, 2, 2)), "f2")
    doc = json.loads(export_json(model))
    doc["strips"] = json.loads(export_json(other))["strips"]
    with pytest.raises(InvariantViolationError):
        import_json(json.dumps(doc))


def test_odd_b_document_rejected(model):
    doc = json.loads(export_json(model))
    doc["conway"] = "C(2,1,2)"
    with pytest.raises(InvariantViolationError):
        import_json(json.dumps(doc))


def test_non_canonical_layout_still_loads(model):
    # same fields, other whitespace: not the export's bytes, so fully checked
    compact = json.dumps(json.loads(export_json(model)))
    assert compact != export_json(model)
    assert import_json(compact) == model


def test_non_integer_fraction_rejected():
    model = assemble_stable_map(ConwayWord((2, 2, 2)), "f2")
    doc = json.loads(export_json(model))
    assert doc["fraction"] == {"p": 12, "q": 5}
    doc["fraction"]["p"] = 12.0
    with pytest.raises(SchemaError):
        import_json(json.dumps(doc))


def test_boolean_bound_rejected():
    model = assemble_stable_map(ConwayWord((3,)), "f2")
    doc = json.loads(export_json(model))
    assert doc["bounds"]["smc_upper"] == 0
    doc["bounds"]["smc_upper"] = False
    with pytest.raises(SchemaError):
        import_json(json.dumps(doc))


@pytest.mark.parametrize("conway", [5, None, ["C(3,2,3)"]])
def test_non_string_conway_rejected(model, conway):
    doc = json.loads(export_json(model))
    doc["conway"] = conway
    with pytest.raises(SchemaError):
        import_json(json.dumps(doc))


_LONG = "x" * 1_000_000


def _set_path(doc: dict, path: tuple, value) -> None:
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


@pytest.mark.parametrize(
    "path, value",
    [
        (("variant",), _LONG),
        (("granularity",), _LONG),
        (("schema_version",), _LONG),
        (("conway",), [_LONG]),
        (("strips", 1, "param"), _LONG),
        (("blocks", 1, "permutation", 0), _LONG),
        (("census", "ii2"), _LONG),
        ((_LONG,), 1),
        (("strips", 1, _LONG), 1),
    ],
    ids=["variant", "granularity", "schema_version", "conway", "strip param", "permutation entry", "census count", "top-level key", "strip key"],
)
def test_a_schema_error_quotes_at_most_a_bounded_piece_of_a_long_value(model, path, value):
    # each of these values or keys, a million characters long, is named in a message under 1 KB
    doc = json.loads(export_json(model))
    _set_path(doc, path, value)
    with pytest.raises(SchemaError) as err:
        import_json(json.dumps(doc))
    message = str(err.value)
    assert len(message) < 1024 and "characters)" in message, message[:300]


def test_export_writes_2m_without_the_bounds_object(monkeypatch, cold):
    # every corpus path: the bound is read off the word, in the export and
    # in the document an import checks field by field
    def refuse(word):
        raise AssertionError("export called smc_upper_bound")

    monkeypatch.setattr(complexity, "smc_upper_bound", refuse)
    assert not hasattr(serialize, "smc_upper_bound")
    for entries in random_even_b_words(20250808, 200):
        word = ConwayWord(entries)
        for variant in ("f2", "f3"):
            for granularity in GRANULARITIES:
                model = assemble_stable_map(word, variant, granularity)
                text = cold(export_json, model)
                assert json.loads(text)["bounds"]["smc_upper"] == 2 * word.m
                assert import_json(json.dumps(json.loads(text))) == model


def test_deeply_nested_text_rejected():
    with pytest.raises(SchemaError):
        import_json("[" * 200000 + "]" * 200000)


_DOCUMENT = export_json(assemble_stable_map(ConwayWord((3, 2, 3)), "f2"))
_TOP_KEYS = tuple(json.loads(_DOCUMENT))
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=20,
)


@given(st.sampled_from(_TOP_KEYS), json_values)
def test_any_field_value_raises_only_library_errors(key, value):
    doc = json.loads(_DOCUMENT)
    doc[key] = value
    try:
        import_json(json.dumps(doc))
    except TwoBridgeError:
        pass


def test_exported_text_loads_without_a_parse(model, monkeypatch):
    text = export_json(model)

    def refuse(*args, **kwargs):
        raise AssertionError("exported text was parsed")

    monkeypatch.setattr(json, "loads", refuse)
    assert import_json(text) == model


def test_tampered_export_is_assembled_once(model, monkeypatch):
    doc = json.loads(export_json(model))
    doc["census"]["ii2"] = 3
    text = json.dumps(doc, indent=2) + "\n"  # the export's layout, other bytes
    calls = []
    assemble = serialize.assemble_stable_map
    monkeypatch.setattr(serialize, "assemble_stable_map", lambda *args: calls.append(args) or assemble(*args))
    with pytest.raises(InvariantViolationError):
        import_json(text)
    assert len(calls) == 1


@pytest.mark.parametrize("keep", [0.5, -2])
def test_truncated_export_is_not_assembled(keep, monkeypatch):
    text = export_json(assemble_stable_map(ConwayWord((100, 2, 100)), "f2"))
    cut = text[: int(len(text) * keep)] if keep > 0 else text[:keep]

    def refuse(*args):
        raise AssertionError("a truncated document was assembled")

    monkeypatch.setattr(serialize, "assemble_stable_map", refuse)
    with pytest.raises(SchemaError):
        import_json(cut)


def test_a_text_shorter_than_the_export_it_names_is_parsed_not_exported(model, monkeypatch):
    # an export's opening and closing lines, 0.2 KB, around a word whose export is 183 MB
    text = export_json(model)
    short = text[: text.index('  "fraction"')] + text[text.rindex(serialize._TAIL_START) + 1 :]
    short = short.replace('"C(3,2,3)"', '"C(3,2,999990)"')
    assert serialize._export_head(short) is not None and len(short) < 200

    def refuse(*args):
        raise AssertionError("a text shorter than the export it names was compared with it")

    monkeypatch.setattr(serialize, "export_json", refuse)
    with pytest.raises(SchemaError, match=r"^document: missing fields "):
        import_json(short)


@pytest.mark.parametrize("variant", ["f2", "f3"])
@pytest.mark.parametrize("granularity", GRANULARITIES)
def test_no_export_is_shorter_than_the_bound_that_skips_the_comparison(variant, granularity):
    for entries in [(3, 2, 3), (-1, -2, -1), *random_even_b_words(7, 30)]:
        model = assemble_stable_map(ConwayWord(entries), variant, granularity)
        assert len(export_json(model)) >= len(model.blocks) * serialize._MIN_BLOCK_TEXT, entries


def test_an_export_passed_as_bytes_takes_the_text_path(model, monkeypatch):
    text = export_json(model)
    parsed = []
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda doc: parsed.append(doc) or loads(doc))
    assert import_json(text.encode()) == model and import_json(bytearray(text.encode())) == model
    assert parsed == []  # accepted by the canonical comparison
    tampered = text.replace('"ii2": 2', '"ii2": 3')
    with pytest.raises(InvariantViolationError, match=r"^census\.ii2: document 3, recomputed 2$"):
        import_json(tampered.encode())
    assert parsed == [tampered]  # decoded before it was parsed
    with pytest.raises(SchemaError, match="^not valid UTF-8: "):
        import_json(text.encode().replace(b"C(3,2,3)", b"C(3,2,3\xff)"))


@pytest.mark.parametrize("layout", ["export", "compact"])
def test_word_over_the_crossing_limit_is_refused_before_assembly(model, layout, monkeypatch):
    # a document of about 2 KB that names a word of 2,000,005 crossings
    text = export_json(model).replace('"conway": "C(3,2,3)"', '"conway": "C(3,2,2000000)"')
    if layout == "compact":
        text = json.dumps(json.loads(text), separators=(",", ":"))

    def refuse(*args):
        raise AssertionError("a word over the crossing limit was assembled or parsed")

    monkeypatch.setattr(serialize, "assemble_stable_map", refuse)
    if layout == "export":  # refused from the export's opening lines, before parsing
        monkeypatch.setattr(serialize.json, "loads", refuse)
    with pytest.raises(WordTooLargeError, match="2000005 crossings"):
        import_json(text)


@pytest.mark.parametrize(
    "path, tamper, message",
    [
        ("blocks[50].permutation", lambda doc: doc["blocks"][50].update(permutation=[2, 1, 3, 4]), r"document \[2, 1, 3, 4\], recomputed \[1, 3, 2, 4\]$"),
        ("blocks[4].events[1].slice", lambda doc: doc["blocks"][4]["events"][1].update(slice="x" * 5000), r"document 'x+\.\.\.x+', recomputed \"F5''\"$"),
        ("blocks[4].events", lambda doc: doc["blocks"][4]["events"].pop(), "document has 1 entries, recomputed 2$"),
        ("strips", lambda doc: doc["strips"].pop(), "document has 104 entries, recomputed 105$"),
        ("census.ii2", lambda doc: doc["census"].update(ii2=3), "document 3, recomputed 2$"),
    ],
)
def test_import_names_the_first_value_that_differs(path, tamper, message):
    doc = json.loads(export_json(assemble_stable_map(ConwayWord((3, 2, 99)), "f2")))
    tamper(doc)
    with pytest.raises(InvariantViolationError, match=f"^{re.escape(path)}: {message}") as err:
        import_json(json.dumps(doc, separators=(",", ":")))
    assert len(str(err.value)) < 1000


@settings(deadline=None, max_examples=60)
@given(model_entries(), st.sampled_from(["f2", "f3"]), st.sampled_from(["crossing", "region", "fine"]))
def test_export_text_is_the_encoded_document(entries, variant, granularity):
    model = assemble_stable_map(ConwayWord(entries), variant, granularity)
    strips = [serialize._strip_entry(strip) for strip in model.strips.strips]
    document = serialize._model_document(model, strips, serialize._block_entries(model.blocks))
    expected = json.dumps(document, indent=2) + "\n"
    assert "".join(serialize._export_parts(model)) == expected
    plain = replace(model, blocks=tuple(model.blocks))
    assert "".join(serialize._export_parts(plain)) == expected


@pytest.mark.parametrize("variant", ["f2", "f3"])
def test_a_cold_path_builds_each_distinct_block_once_and_frames_without_the_indent_encoder(variant, monkeypatch, cold):
    # counted, not timed: assembly reads the catalogue once per distinct
    # strip, not per run, with the key read off the strip's kind and
    # columns, and the export frame calls neither the indent encoder nor asdict
    word = ConwayWord(max(random_even_b_words(20250808, 200), key=len))
    looked, checked = [], []

    class Counted(dict):
        def __getitem__(self, key):
            looked.append(key)
            return dict.__getitem__(self, key)

    monkeypatch.setattr(morse, "_CATALOGUE", Counted(morse._CATALOGUE))
    monkeypatch.setattr(morse, "_catalogue_key", lambda strip, variant: checked.append(strip))
    model = cold(assemble_stable_map, word, variant, "fine")
    monkeypatch.undo()
    # the distinct strips are the numbering's and the filler, whose block is read once
    distinct, filler = model._strips_numbered.values, model.strips.strips.filler
    assert len(distinct) + 1 == len({id(strip) for strip in model.strips.strips}) < len(model.strips.strips.runs)
    assert filler not in distinct and {id(strip) for strip in model.strips.strips} == {*map(id, distinct), id(filler)}
    assert looked == [(strip.kind, len(strip.columns) % 2, variant) for strip in (*distinct, filler)] and not checked
    text = cold(export_json, model)  # fills the entry texts, cached per strip and block value
    dumps, calls = json.dumps, []
    monkeypatch.setattr(json, "dumps", lambda *args, **kwargs: calls.append(kwargs) or dumps(*args, **kwargs))
    monkeypatch.setattr(serialize, "asdict", lambda obj: calls.append("asdict") or {}, raising=False)
    assert cold(export_json, model) == text
    monkeypatch.undo()
    assert calls and not [call for call in calls if call == "asdict" or "indent" in call]


def test_export_fills_each_distinct_block_template():
    # two event blocks that differ in their permutation share no template
    model = assemble_stable_map(ConwayWord((3, 2, 3, 2, 3)), "f2")
    blocks = list(model.blocks)
    j = [i for i, block in enumerate(blocks) if block.events][-1]
    blocks[j] = replace(blocks[j], permutation=(2, 1, 3, 4))
    tampered = replace(model, blocks=tuple(blocks))
    strips = [serialize._strip_entry(strip) for strip in model.strips.strips]
    document = serialize._model_document(tampered, strips, serialize._block_entries(tampered.blocks))
    assert "".join(serialize._export_parts(tampered)) == json.dumps(document, indent=2) + "\n"


@pytest.mark.parametrize("variant", ["f2", "f3"])
def test_a_model_holds_and_exports_one_strip_per_value(variant, monkeypatch, cold):
    word = ConwayWord((3, 2) * 1000 + (3,))
    for granularity in GRANULARITIES:
        model = cold(assemble_stable_map, word, variant, granularity)
        distinct = {id(strip) for strip in model.strips.strips}
        assert len(distinct) <= 5, granularity
        calls = []
        monkeypatch.setattr(serialize, "_strip_text", lambda strip: calls.append(id(strip)) or "")
        cold(export_json, model)
        monkeypatch.undo()
        assert sorted(calls) == sorted(distinct), granularity


def test_a_document_whose_word_does_not_assemble_is_rejected(cold):
    text = export_json(assemble_stable_map(ConwayWord((3, 2, 3)), "f2"))
    text = text.replace('"conway": "C(3,2,3)"', '"conway": "C(3,3,3)"')
    with pytest.raises(InvariantViolationError, match=r"^document does not assemble: "):
        cold(import_json, text)


@pytest.mark.parametrize("text", ["C(3,2,3)", "C(2,-4,2,2,-3)", "C(3,4,-3,2,1,2,2)"])
@pytest.mark.parametrize("variant", ["f2", "f3"])
@pytest.mark.parametrize("granularity", GRANULARITIES)
def test_equal_copies_of_catalogued_blocks_give_the_same_bytes(text, variant, granularity):
    # a model built by hand is numbered by block value: a copy of an entry
    # is that entry, held as plain runs, as regrouped runs or as a tuple, and
    # a fine model's as the runs of copies with a copy of the filler after each
    model = assemble_stable_map(parse_conway(text), variant, granularity)
    copies = {id(block): replace(block) for block in model.blocks}
    assert all(copy == block and copy is not block for block in model.blocks for copy in [copies[id(block)]])
    blocks = [copies[id(block)] for block in model.blocks]
    expected = (export_json(model), render_svg(model), model.census, model.trace.components)
    helds = [_RunSeq(_runs(blocks)), _RunSeq(regrouped_runs(blocks, 2)), tuple(blocks)]
    if granularity == "fine":
        helds.append(_Filled([(copies[id(block)], count) for block, count in model.blocks.runs], filler=replace(model.blocks.filler)))
    for held in helds:
        hand = replace(model, blocks=held)
        assert hand._blocks_numbered.values is morse._ENTRIES  # every block is an entry
        assert ("".join(serialize._export_parts(hand)), render_svg(hand), hand.census, hand.trace.components) == expected


@pytest.mark.parametrize("variant", ["f2", "f3"])
@pytest.mark.parametrize("granularity", GRANULARITIES)
def test_a_model_is_numbered_once_and_its_export_import_and_render_number_nothing(variant, granularity, monkeypatch, cold):
    # the runs are numbered in the walk that slices the word's regions into
    # strips; assembly builds no plat diagram or curve and numbers no
    # sequence, and the export, a canonical import and the render read
    # the numbering assembly kept
    from twobridge import curves, render

    numbered, calls, built = curves._numbered, [], []
    for module in (curves, morse, render):
        monkeypatch.setattr(module, "_numbered", lambda items: calls.append(items) or numbered(items))
    for cls in (curves.PlatDiagram, curves.ImmersedCurve):
        monkeypatch.setattr(cls, "__init__", lambda self, *args, init=cls.__init__, **kwargs: built.append(self) or init(self, *args, **kwargs))
    assert not hasattr(curves, "_mapped")
    for text in random_even_b_words(20250808, 4):
        model = cold(assemble_stable_map, ConwayWord(text), variant, granularity)
        assert {"_strips_numbered", "_blocks_numbered", "_fraction"} <= vars(model).keys() and "_slicing" in vars(model.strips)
        text = export_json(model)
        assert import_json(text) is model and render_svg(model)
        back = cold(import_json, text)  # assembles the word again
        assert back == model and back is not model
        assert calls == [] and built == []
    curve = curves.outer_smooth(curves.PlatDiagram(model.word))
    render_svg(curves.bigon_reduce(curve) if variant == "f3" else curve)  # the counters count: a diagram, its curves, their columns
    assert len(calls) == 1 and len(built) == 2 + (variant == "f3")
