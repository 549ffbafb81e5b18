"""JSON interchange for assembled stable map models.

The document is the single source of truth for a model: schema version
"1", closed schema (unknown fields are rejected, not ignored), integer
numerics only.  Import never trusts the document's census: the model is
re-derived from the word and every stored structure is checked against
the fresh one, and a text shorter than the export it names is parsed,
never exported to compare.  ``granularity`` is stored so that
round-trips are lossless across slicing conventions.  The arrays are
written off the model's numbering: one run of a text per distinct strip,
and a block template per catalogue entry (``_BLOCK_ROWS``).
"""

from __future__ import annotations

import json
import re
import reprlib
from dataclasses import fields
from functools import lru_cache
from operator import attrgetter

from .complexity import weighted_sum
from .conway import _require_size, format_conway, parse_conway
from .curves import _FILLER, GRANULARITIES, VARIANTS, _each, _runs_of
from .errors import InvariantViolationError, SchemaError, TwoBridgeError, WordTooLargeError, _quoted
from .morse import _CATALOGUE, _ENTRIES, EVENT_SLICES, SingularFiberCensus, StableMapModel, _facts, assemble_stable_map
from .render import _followed, _pieces, _row, _run_rows, _Text, _Texts, _windowed

SCHEMA_VERSION = "1"

_TOP_KEYS = ("schema_version", "conway", "variant", "granularity", "fraction", "strips", "blocks", "census", "bounds")
# The fields that are objects of integers, with their keys.
_INT_FIELDS = {
    "fraction": ("p", "q"),
    "census": tuple(f.name for f in fields(SingularFiberCensus)),
    "bounds": ("smc_upper", "weighted_sum"),
}
_census_values = attrgetter(*_INT_FIELDS["census"])


def _strip_entry(strip) -> dict:
    return {"type": strip.kind, "param": strip.param}


def _block_entry(kind: str, events: tuple, permutation: tuple[int, ...], slices) -> dict:
    """A block's entry, with ``slices`` for its events' slice tags."""
    return {
        "kind": kind,
        "events": [{"kind": e.kind, "slice": tag} for e, tag in zip(events, slices)],
        "permutation": list(permutation),
    }


def _model_document(model: StableMapModel, strips, blocks) -> dict:
    """The document of ``model`` around the given "strips" and "blocks"
    entries, for the comparison in ``import_json``."""
    fraction = model._fraction
    census = model.census
    return {
        "schema_version": SCHEMA_VERSION,
        "conway": format_conway(model.word),
        "variant": model.variant,
        "granularity": model.granularity,
        "fraction": {"p": fraction.p, "q": fraction.q},
        "strips": strips,
        "blocks": blocks,
        "census": dict(zip(_INT_FIELDS["census"], _census_values(census))),
        "bounds": {
            "smc_upper": 2 * model.word.m,
            "weighted_sum": weighted_sum(census),
        },
    }


def _entry_text(entry: dict) -> str:
    """An array entry laid out as ``json.dumps(indent=2)`` puts it two
    levels deep in the document."""
    return "    " + json.dumps(entry, indent=2).replace("\n", "\n    ")


def _strip_text(strip) -> str:
    return _plain_strip_text(strip.kind, strip.param)


@lru_cache(maxsize=1024, typed=True)
def _plain_strip_text(kind: str, param: int) -> str:
    return _entry_text({"type": kind, "param": param}) + ",\n"


def _block_row(block):
    """The rows (``render._row``) of a block's text and its separator, with
    the field ``{i}`` for the section number in the slice tag of event
    ``i``, which steps by one per block; None if an event slice is none of
    ``EVENT_SLICES``."""
    events = block.events
    if any(e.slice not in EVENT_SLICES for e in events):
        return None
    fields = [EVENT_SLICES[e.slice][0].format(f"{{{i}}}") for i, e in enumerate(events)]
    text = _entry_text(_block_entry(block.kind, events, block.permutation, fields)) + ",\n"
    if len(_pieces(text)) != 2 * len(events) + 1:
        raise InvariantViolationError(f"block kind {block.kind!r} or its event kinds hold a template field")
    return _row(text, tuple((EVENT_SLICES[e.slice][1], 1) for e in events))


_BLOCK_ROWS = tuple(map(_block_row, _ENTRIES))  # by entry number
_FILLER_ROW = _block_row(_CATALOGUE["type3", 0, "f2"])  # a fine model's filler block, in either variant
_FINE_BLOCK_ROWS = tuple(_followed(row, _FILLER_ROW) for row in _BLOCK_ROWS)  # and after each block of a fine model
# No export is shorter per block than the shortest strip and catalogued block texts with separators.
_MIN_BLOCK_TEXT = len(_plain_strip_text("type1", 0)) + min(len(row.template) for row in _BLOCK_ROWS)


def _block_entries(blocks) -> list[dict]:
    entries = []
    first = 0
    for block, count in _runs_of(blocks):
        if block.events:
            slices = [EVENT_SLICES[e.slice] for e in block.events]
            for j in range(first, first + count):
                names = [name.format(j + offset) for name, offset in slices]
                entries.append(_block_entry(block.kind, block.events, block.permutation, names))
        else:
            entries += [_block_entry(block.kind, (), block.permutation, ())] * count
        first += count
    return entries


def _frame() -> list[str]:
    """``json.dumps(indent=2)`` of a document of holes, cut at the two
    arrays into three texts, with ``%s`` for every other value."""
    document = dict.fromkeys(_TOP_KEYS, "\0") | {"schema_version": SCHEMA_VERSION, "strips": "\1", "blocks": "\1"}
    document |= {name: dict.fromkeys(keys, "\0") for name, keys in _INT_FIELDS.items()}
    return (json.dumps(document, indent=2).replace(json.dumps("\0"), "%s") + "\n").split(json.dumps("\1"))


_HEAD, _MIDDLE, _TAIL = _frame()
_MIDDLE_ROWS = (_Text(_MIDDLE + "[]"), _Text(_MIDDLE + "[\n"))  # without and with blocks


def _closed(entry: str) -> str:
    """An array's last entry text, its separator replaced by the array's end."""
    return entry[:-2] + "\n  ]"


@lru_cache(maxsize=1)
def export_json(model: StableMapModel) -> str:
    """Serialize with deterministic field order; integers only.

    The bytes are those of ``json.dumps(document, indent=2)``, whose
    encoder is pure Python, laid out as one list of parts and joined once
    (``_export_parts``): the frame as one text template (``_frame``), its
    strings quoted from a table, the word's through ``json.dumps``, the
    strips as one run of a cached text per distinct strip, the blocks as
    a template per distinct block with the slice tags filled in per run,
    and 2m.  The last text is kept and returned again for an equal model.
    """
    return "".join(_export_parts(model))


# The quoted text of each string of the vocabularies, as json.dumps writes it.
_QUOTED = {name: json.dumps(name) for name in VARIANTS + GRANULARITIES}


def _export_parts(model: StableMapModel, flush=None) -> list[str]:
    """The parts of the export of ``model``, in order (``render._windowed``).
    Each entry of an array ends in its separator, and the last one's
    closes the array."""
    word, census, numbered, blocks = model.word, model.census, model._strips_numbered, model.blocks
    fraction = model._fraction
    strings = (json.dumps(format_conway(word)), _QUOTED[model.variant], _QUOTED[model.granularity])
    texts = list(map(_strip_text, numbered.values))
    texts[-1] = _closed(texts[-1])  # the outer cap's, last, closes the array
    strips = _Texts(_each(numbered, texts, numbered.fine and _strip_text(_FILLER))), len(model.strips.strips), 0
    parts = [_HEAD % (*strings, fraction.p, fraction.q), "[\n"]
    rows = _facts(_BLOCK_ROWS, model._blocks_numbered, _block_row)
    if None in rows:  # a block with an event slice none of EVENT_SLICES, which has no row
        index, bad = next((i, e.slice) for i, block in enumerate(blocks) for e in block.events if e.slice not in EVENT_SLICES)
        raise InvariantViolationError(f"block {index}: event slice {bad!r} is none of {list(EVENT_SLICES)}")
    fine_rows = model._blocks_numbered.fine and _FINE_BLOCK_ROWS + tuple(_followed(row, _FILLER_ROW) for row in rows[len(_ENTRIES) :])
    _windowed(parts, [strips, (_MIDDLE_ROWS[bool(blocks)], 1, 0), *_run_rows(model._blocks_numbered, rows, fine_rows)], flush)
    if blocks:
        parts[-1] = _closed(parts[-1])
    parts.append(_TAIL % (*_census_values(census), 2 * word.m, weighted_sum(census)))
    return parts


def _require_keys(obj: dict, keys: tuple[str, ...], where: str) -> None:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object")
    missing = [k for k in keys if k not in obj]
    unknown = [k for k in obj if k not in keys]
    if missing:
        raise SchemaError(f"{where}: missing fields {_quoted(repr(missing), str)}")
    if unknown:
        raise SchemaError(f"{where}: unknown fields {_quoted(repr(unknown), str)}")


def _require_int(value, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaError(f"{where}: expected an integer, got {_quoted(repr(value), str)}")
    return value


# The opening of every exported document, up to the fields that
# determine the model, and its closing lines.
_CANONICAL_HEAD = re.compile(
    r'\{\n  "schema_version": ' + re.escape(json.dumps(SCHEMA_VERSION)) + r',\n'
    r'  "conway": "([^"\\\n]*)",\n'
    rf'  "variant": "({"|".join(VARIANTS)})",\n  "granularity": "({"|".join(GRANULARITIES)})",\n'
)
_TAIL_START = '\n  "bounds": {\n'
_CANONICAL_TAIL = re.compile(
    re.escape(_TAIL_START) + r'    "smc_upper": -?\d+,\n    "weighted_sum": -?\d+\n  \}\n\}\n'
)


def _export_head(text) -> re.Match | None:
    """The opening of a text that opens and closes as an export does.
    Only such a text is assembled before it is parsed, so a truncated
    export is rejected by the parser alone."""
    if not isinstance(text, str):
        return None
    head = _CANONICAL_HEAD.match(text)
    if head is None:
        return None
    tail = text.rfind(_TAIL_START)
    return head if tail >= 0 and _CANONICAL_TAIL.fullmatch(text, tail) else None


def import_json(text: str | bytes | bytearray) -> StableMapModel:
    """Reconstruct a model from document text and revalidate everything.

    The word, variant, and granularity determine a fresh assembly; the
    document's strips, blocks, census, fraction, and bounds must all
    agree with it, otherwise the document is internally inconsistent.
    A document that is byte for byte the export of that assembly is
    accepted as it stands; any other is parsed and checked field by
    field, schema first.  Only a text that opens and closes as an export
    does is assembled before it is parsed, and only one no shorter than
    that assembly's export can be is compared with it.  A word of more than
    ``MAX_CROSSINGS`` crossings raises ``WordTooLargeError`` before any
    assembly.  The export of the model assembled last finds that model
    and its text kept (``assemble_stable_map``, ``export_json``), so
    accepting it costs one string comparison.  Bytes are decoded as
    UTF-8 first (a leading byte order mark is dropped, as ``json.loads``
    drops it), so they take the same path; bytes that are not UTF-8
    raise ``SchemaError``.
    """
    if isinstance(text, (bytes, bytearray)):
        try:
            text = text.decode("utf-8-sig")
        except UnicodeDecodeError as err:
            raise SchemaError(f"not valid UTF-8: {err}") from None
    head = _export_head(text)
    model = None
    if head is not None:
        try:
            model = assemble_stable_map(_require_size(parse_conway(head[1])), head[2], head[3])
        except WordTooLargeError:
            raise
        except TwoBridgeError:
            pass  # reported below, after the schema checks
        else:
            if len(text) >= len(model.blocks) * _MIN_BLOCK_TEXT and export_json(model) == text:
                return model  # an export of a fresh assembly passes every check below
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as err:  # ValueError covers JSONDecodeError
        raise SchemaError(f"not valid JSON: {err}") from None
    _require_keys(doc, _TOP_KEYS, "document")
    if doc["schema_version"] != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema_version {_quoted(repr(doc['schema_version']), str)}")
    if doc["variant"] not in VARIANTS:
        raise SchemaError(f"unknown variant {_quoted(repr(doc['variant']), str)}")
    if doc["granularity"] not in GRANULARITIES:
        raise SchemaError(f"unknown granularity {_quoted(repr(doc['granularity']), str)}")
    for name, keys in _INT_FIELDS.items():
        _require_keys(doc[name], keys, name)
    if not isinstance(doc["strips"], list) or not isinstance(doc["blocks"], list):
        raise SchemaError("strips and blocks must be arrays")
    for i, strip in enumerate(doc["strips"]):
        _require_keys(strip, ("type", "param"), f"strips[{i}]")
        _require_int(strip["param"], f"strips[{i}].param")
    for i, block in enumerate(doc["blocks"]):
        _require_keys(block, ("kind", "events", "permutation"), f"blocks[{i}]")
        if not isinstance(block["events"], list):
            raise SchemaError(f"blocks[{i}].events must be an array")
        for j, event in enumerate(block["events"]):
            _require_keys(event, ("kind", "slice"), f"blocks[{i}].events[{j}]")
        if (
            not isinstance(block["permutation"], list)
            or len(block["permutation"]) != 4
            or sorted(_require_int(v, f"blocks[{i}].permutation") for v in block["permutation"])
            != [1, 2, 3, 4]
        ):
            raise SchemaError(f"blocks[{i}].permutation must be a permutation of 1..4")
    for name, keys in _INT_FIELDS.items():
        for key in keys:
            _require_int(doc[name][key], f"{name}.{key}")
    if not isinstance(doc["conway"], str):
        raise SchemaError(f"conway: expected a string, got {_quoted(repr(doc['conway']), str)}")

    if model is None or (doc["conway"], doc["variant"], doc["granularity"]) != head.groups():
        try:
            word = _require_size(parse_conway(doc["conway"]))
            model = assemble_stable_map(word, doc["variant"], doc["granularity"])
        except WordTooLargeError:
            raise
        except TwoBridgeError as err:
            raise InvariantViolationError(f"document does not assemble: {err}") from None

    numbered = model._strips_numbered
    strips = list(_each(numbered, list(map(_strip_entry, numbered.values)), numbered.fine and _strip_entry(_FILLER)))
    fresh = _model_document(model, strips, _block_entries(model.blocks))
    for key in _TOP_KEYS:
        if doc[key] != fresh[key]:
            raise InvariantViolationError(_first_difference(key, doc[key], fresh[key]))
    return model


def _first_difference(path: str, ours, theirs) -> str:
    """Name the first value at or under ``path`` where the document holds
    ``ours`` and the recomputed model ``theirs``, with both values, or the
    two lengths of arrays that differ in length."""
    if isinstance(ours, dict) and isinstance(theirs, dict) and ours.keys() == theirs.keys():
        key = next(k for k in theirs if ours[k] != theirs[k])
        return _first_difference(f"{path}.{key}", ours[key], theirs[key])
    if isinstance(ours, list) and isinstance(theirs, list):
        if len(ours) != len(theirs):
            return f"{path}: document has {len(ours)} entries, recomputed {len(theirs)}"
        i = next(i for i, (x, y) in enumerate(zip(ours, theirs)) if x != y)
        if isinstance(theirs[i], (dict, list)):
            return _first_difference(f"{path}[{i}]", ours[i], theirs[i])
    return f"{path}: document {reprlib.repr(ours)}, recomputed {reprlib.repr(theirs)}"
