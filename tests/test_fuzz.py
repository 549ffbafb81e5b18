"""Hostile-input fuzzers: every CLI invocation exits 0, 1 or 2, and the
document and table readers raise only the library's own errors."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twobridge.cli import run_cli
from twobridge.complexity import VolumeRecord, ingest_volume_table
from twobridge.conway import MAX_CROSSINGS, ConwayWord, format_conway
from twobridge.errors import InvariantViolationError, SchemaError, TwoBridgeError, WordTooLargeError
from twobridge.morse import assemble_stable_map
from twobridge.serialize import export_json, import_json

fuzz = settings(max_examples=200, deadline=None)

# --- run_cli argv -------------------------------------------------------------

nonzero = st.integers(-20, 20).filter(bool)
even = st.integers(-10, 10).filter(bool).map(lambda b: 2 * b)


def small_words(b_entries):
    """Words of at most 20 + 4 * (20 + 20) = 180 crossings."""
    return st.tuples(nonzero, st.lists(st.tuples(b_entries, nonzero), max_size=4)).map(
        lambda t: format_conway(ConwayWord((t[0], *(e for pair in t[1] for e in pair))))
    )


even_b_words = small_words(even)
malformed_words = st.text(alphabet="C()[],-0123456789 x.\t", max_size=16)
padded_words = st.tuples(st.sampled_from(["", " ", "\t", " \n "]), even_b_words, st.sampled_from(["", " ", "\n"])).map(
    "".join
)
huge_words = st.tuples(st.integers(MAX_CROSSINGS + 1, 10**30), st.sampled_from([(), (2, 3), (-4, -1)])).map(
    lambda t: format_conway(ConwayWord((t[0], *t[1])))
)
words = even_b_words | small_words(nonzero) | malformed_words | padded_words | huge_words
floats = (
    st.floats(allow_nan=True, allow_infinity=True).map(repr)
    | st.floats(0, 50).map(repr)
    | st.sampled_from(["nan", "inf", "-inf", "1e400", "x"])
)
# No -h (argparse exits), no -o (writes a file) and no --bound (a large
# bound makes the even-b search exponential).
stray_flags = st.sampled_from(
    ["--json", "--label", "--granularity", "fine", "bogus", "--variant", "f4", "--subject", "curve", "--", "--volume", "--epsilon", "--jobs", "-x", "--nope"]
)
# 1 MB texts: none is a word, a file name or an option value that a command can use
megabyte = st.sampled_from(["x" * 2**20, "9" * 2**20, "C(" + "3," * 2**19 + ")"])
valued_options = st.sampled_from(
    ["--variant", "--granularity", "--subject", "--volume", "--volume-table", "--label", "--epsilon", "--bound", "-o", "--command", "--input", "--jobs"]
)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("fuzz")
    (folder / "volumes.csv").write_text("big,C(2,2,2),14.0\nk323,24/7,9.0\nsame,C(3,2,3),9.5\n")
    return folder


@st.composite
def argvs(draw, folder):
    command = draw(st.sampled_from(["analyze", "build", "certify", "render", "normalize", "batch"]))
    word = draw(words)
    granularity = ["--granularity", draw(st.sampled_from(["crossing", "region", "fine"]))]
    if command == "analyze":
        args = [word]
    elif command == "build":
        args = [word, "--variant", draw(st.sampled_from(["f2", "f3"])), *draw(st.sampled_from([[], granularity]))]
    elif command == "certify":
        source = draw(st.sampled_from([["--volume", draw(floats)], ["--volume-table", str(folder / "volumes.csv")]]))
        epsilon = draw(st.sampled_from([[], ["--epsilon", draw(floats)]]))
        args = [word, *source, *epsilon, *draw(st.sampled_from([[], ["--json"], ["--label", "big"]]))]
    elif command == "render":
        subject = draw(st.sampled_from(["curve", "strips", "model"]))
        args = [word, "--subject", subject, "--variant", draw(st.sampled_from(["f2", "f3"])), *granularity]
    elif command == "normalize":
        args = [word, "--bound", str(draw(st.integers(-3, 40)))]
    else:
        lines = draw(st.lists(words | megabyte, max_size=3))
        (folder / "words.txt").write_text("".join(line.replace("\n", " ") + "\n" for line in lines))
        extra = {"build": ["--variant", "f2"], "certify": ["--volume", draw(floats)]}
        inner = draw(st.sampled_from(["analyze", "build", "certify", "render", "normalize"]))
        args = ["--command", inner, "--input", str(folder / "words.txt"), "--", *extra.get(inner, [])]
    for flag in draw(st.lists(stray_flags, max_size=2)):
        args.insert(draw(st.integers(0, len(args))), flag)
    if draw(st.integers(0, 3)) == 0:  # a 1 MB value for an option; given last, it wins over an earlier one
        args += [draw(valued_options), draw(megabyte)]
    return [command, *args]


@fuzz
@given(st.data())
def test_every_argv_exits_0_1_or_2(files, data):
    argv = data.draw(argvs(files))
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        status = run_cli(argv)
    assert status in (0, 1, 2), argv
    assert len(stderr.getvalue().encode()) < 1024, argv


# --- import_json of an export with one field replaced ---------------------------

_MODEL = assemble_stable_map(ConwayWord((3, 2, 3)), "f3", "region")
_DOCUMENT = json.loads(export_json(_MODEL))


def _paths(node, path=()):
    """Every field of the document, as the keys and indices that reach it."""
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, (*path, key))


_FIELDS = list(_paths(_DOCUMENT))[1:]
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=12)
    | st.sampled_from(["f2", "f3", "fine", "type2", "II3", "F1''", "C(3,2,3)", "C(2,2,2)", "C(3,2,2000000)", "1"]),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


@fuzz
@given(st.sampled_from(_FIELDS), json_values, st.sampled_from([None, 2]))
def test_a_document_with_one_field_replaced_is_rejected_or_equal(path, value, indent):
    doc = json.loads(json.dumps(_DOCUMENT))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    try:
        model = import_json(json.dumps(doc, indent=indent) + "\n")
    except (SchemaError, InvariantViolationError, WordTooLargeError):
        return
    assert model == _MODEL


# --- volume tables --------------------------------------------------------------

cells = st.text(alphabet="abC(),/-.0123456789e \t#", max_size=10) | st.sampled_from(["nan", "inf", "-1", "1e400", "0", "3.5"])
table_lines = st.lists(st.tuples(cells, cells, cells).map(",".join) | st.text(max_size=20), max_size=5).map("\n".join)


@fuzz
@given(table_lines | st.text())
def test_any_table_text_is_read_or_raises_a_library_error(text):
    try:
        records = ingest_volume_table(text, source="fuzz")
    except TwoBridgeError:
        return
    assert all(isinstance(record, VolumeRecord) for record in records)
