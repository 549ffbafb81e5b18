"""CLI surface: subcommands, exit codes, outputs."""

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
import types

import pytest
from hypothesis import given
from hypothesis import strategies as st

from twobridge import cli, complexity, curves, morse, render, serialize
from twobridge.cli import run_cli
from twobridge.conway import SchubertFraction, all_b_even, fraction_of, parse_conway, schubert_equivalent
from twobridge.errors import ConwaySyntaxError
from twobridge.curves import ImmersedCurve, bigon_reduce, build_plat_diagram, outer_smooth, strip_decompose
from twobridge.morse import assemble_stable_map
from twobridge.render import render_svg
from twobridge.serialize import export_json


def test_analyze_output(capsys):
    assert run_cli(["analyze", "C(3,2,3)"]) == 0
    out = capsys.readouterr().out
    assert "fraction: 24/7" in out
    assert "components: 2" in out
    assert "all_b_even: true" in out
    assert "twist_number: 3" in out


def test_analyze_not_alternating(capsys):
    assert run_cli(["analyze", "C(2,-2,2)"]) == 0
    out = capsys.readouterr().out
    assert "undefined (not reduced alternating)" in out


def test_build_f2(capsys):
    assert run_cli(["build", "--variant", "f2", "C(3,2,3)"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["census"]["ii2"] == 2
    assert doc["census"]["ii3"] == 0


def test_build_rejects_odd_b(capsys):
    assert run_cli(["build", "--variant", "f2", "C(2,1,2)"]) == 2
    err = capsys.readouterr().err
    assert "C(2,1,2)" in err


def test_build_of_a_word_with_a_fullwidth_digit_exits_1(capsys):
    assert run_cli(["build", "C(\uff11,2,3)", "--variant", "f2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "bad integer" in captured.err


@pytest.mark.parametrize(
    "argv",
    [["build", "C(3,2,2000000)", "--variant", "f2"], ["render", "C(3,2,2000000)", "--subject", "curve"]],
)
def test_word_over_the_crossing_limit_exits_1_with_one_line(argv, capsys):
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error on 'C(3,2,2000000)': 2000005 crossings, more than the limit of 1000000\n"


def test_build_to_file(tmp_path, capsys):
    target = tmp_path / "model.json"
    assert run_cli(["build", "--variant", "f3", "-o", str(target), "C(3,2,3)"]) == 0
    doc = json.loads(target.read_text())
    assert doc["census"]["ii3"] == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "C(3,2,40000)", "--variant", "f2"],
        ["build", "C(-3,-20000,-3)", "--variant", "f3", "--granularity", "fine"],
        ["render", "C(3,2,3000)", "--subject", "model"],
        ["render", "C(3,2,6000)", "--subject", "curve"],
        ["render", "C(3,2,6000)", "--subject", "strips", "--variant", "f3"],
    ],
)
def test_output_to_a_file_is_the_output_to_stdout(argv, tmp_path, capsys):
    # each document is written in more than one slice of its parts
    target = tmp_path / "out"
    assert run_cli([*argv, "-o", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert run_cli(argv) == 0
    out = capsys.readouterr().out
    assert len(out) > 1_000_000
    assert target.read_bytes() == out.encode()


@pytest.mark.parametrize("argv", [["render", "--subject", "model"], ["render", "--subject", "curve"], ["build", "--variant", "f2"]])
def test_writing_an_output_holds_no_more_for_a_ten_times_larger_word(argv):
    # written window by window to a null sink, so the peak does not grow
    # with the word; the first call lays out the rows the later ones slice
    assert run_cli([*argv, "C(3,2,2000)", "-o", os.devnull]) == 0
    peaks = []
    for text in ("C(3,2,20000)", "C(3,2,200000)"):
        tracemalloc.start()
        try:
            assert run_cli([*argv, text, "-o", os.devnull]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 2 * 2**20, peaks


_MB = 1 << 20
_MANY_PARTS = "C(" + "3,2," * 3000 + "6000)"  # more than one window of parts at every granularity


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "C(" + "3," * (_MB // 2 - 2) + "x)"],  # malformed
        ["analyze", "C(" + "3," * (_MB // 2 - 2) + "0)"],  # a zero entry
        ["analyze", "C(" + "1" * _MB + ")"],  # one integer past int()'s limit
        ["build", "C(" + "9," * (_MB // 2 - 2) + "9)", "--variant", "f2"],  # too large
    ],
)
def test_an_error_on_a_1_mb_word_quotes_its_ends_and_length(argv, capsys):
    assert len(argv[1]) >= _MB
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err) < 1024
    assert f"' ({len(argv[1])} characters)" in captured.err


@pytest.mark.parametrize("variant", ["f2", "f3"])
@pytest.mark.parametrize("granularity", ["crossing", "region", "fine"])
def test_a_build_written_in_windows_is_the_library_document(variant, granularity, capsys):
    model = assemble_stable_map(parse_conway(_MANY_PARTS), variant, granularity)
    assert len(serialize._export_parts(model)) > 8192
    assert run_cli(["build", _MANY_PARTS, "--variant", variant, "--granularity", granularity]) == 0
    assert capsys.readouterr().out == export_json(model)


@pytest.mark.parametrize("subject", ["model", "curve", "strips"])
def test_a_render_written_in_windows_is_the_library_svg(subject, capsys):
    model = assemble_stable_map(parse_conway(_MANY_PARTS), "f2", "crossing")
    drawn = {"model": model, "curve": ImmersedCurve(model.word, "f2"), "strips": model.strips}[subject]
    assert len(render._svg_parts(drawn)) > 8192
    expected = render_svg(drawn)
    assert run_cli(["render", _MANY_PARTS, "--subject", subject]) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("window", [1, 2, 3, 4, 5, 7, 11])
def test_a_document_written_in_windows_of_any_size_is_the_library_one(window, monkeypatch):
    # every boundary between two windows falls somewhere, the last row's too
    monkeypatch.setattr(render, "_WINDOW", window)
    for text in ("C(3,2,3)", "C(-2,4,5,2,-3)", "C(3,2,3,2,3,2,3)"):
        for variant, granularity in [("f2", "crossing"), ("f2", "fine"), ("f3", "region"), ("f3", "fine")]:
            model = assemble_stable_map(parse_conway(text), variant, granularity)
            for write, document in ((serialize._export_parts, export_json), (render._svg_parts, render_svg)):
                out = io.StringIO()
                cli._write_output(lambda flush: write(model, flush), None, out)
                assert out.getvalue() == document(model)


@pytest.mark.parametrize("window", [render._WINDOW, 64])
def test_a_window_holds_under_its_size_in_longest_rows(window, monkeypatch):
    # a fill inside a layout's built rows appends them as one text, so a
    # window counts row pieces, not parts: each text written stays under
    # the window times the document's longest row (an entry of the
    # export, a line of the SVG)
    monkeypatch.setattr(render, "_WINDOW", window)
    model = assemble_stable_map(parse_conway("C(3,2,30000)"), "f3", "crossing")
    for write, document, row in ((serialize._export_parts, export_json, "\n    {"), (render._svg_parts, render_svg, "\n")):
        texts = []
        cli._write_output(lambda flush: write(model, flush), None, types.SimpleNamespace(write=texts.append))
        longest = max(map(len, document(model).split(row)))
        assert "".join(texts) == document(model) and len(texts) > 2
        assert max(map(len, texts)) < window * longest, (write.__name__, max(map(len, texts)), longest)


@pytest.mark.parametrize("argv", [["build", "C(3,2,3)", "--variant", "f2"], ["render", "C(3,2,3)"]])
def test_an_empty_output_path_is_a_path_that_cannot_be_opened(argv, capsys):
    assert run_cli([*argv, "-o", ""]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error on 'C(3,2,3)': [Errno 2] No such file or directory: ''\n"


def test_batch_refuses_an_empty_output_path(tmp_path, capsys):
    words = tmp_path / "words.txt"
    words.write_text("C(3,2,3)\n")
    assert run_cli(["batch", "--command", "build", "--input", str(words), "--", "--variant", "f2", "-o", ""]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: batch writes each output into its record; -o/--output is not allowed\n"


def test_certify_with_volume(capsys):
    assert run_cli(["certify", "C(2,2,2)", "--volume", "14.0"]) == 0
    out = capsys.readouterr().out
    assert "status: certified" in out
    assert "certified smc=2" in out


def test_certify_inconclusive(capsys):
    assert run_cli(["certify", "C(2,2,2)", "--volume", "3.6639"]) == 0
    assert "status: inconclusive" in capsys.readouterr().out


def test_certify_json_flag(capsys):
    assert run_cli(["certify", "C(2,2,2)", "--volume", "14.0", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "certified"
    assert doc["smc"] == 2


def test_certify_with_table(tmp_path, capsys):
    table = tmp_path / "volumes.csv"
    table.write_text(
        "# census volumes\nwhitehead,C(2,2,-2),3.663862\nbig223,C(2,2,2),14.0\n"
    )
    assert run_cli(["certify", "C(2,2,2)", "--volume-table", str(table)]) == 0
    assert "certified" in capsys.readouterr().out


@pytest.mark.parametrize("digits", [("\uff17", "\uff13"), ("\u0667", "3")])
def test_a_table_reference_reads_only_ascii_digits(digits):
    # fullwidth and Arabic-Indic digits pass int(), as parse_conway refuses them in a word
    assert cli._reference_fraction("/".join(digits)) is None
    assert cli._reference_fraction("7/3") == SchubertFraction.normalized(7, 3)


def test_a_volume_in_fullwidth_digits_exits_1(tmp_path, capsys):
    table = tmp_path / "volumes.csv"
    table.write_text("big223,C(2,2,2),\uff11\uff14.0\n")
    assert run_cli(["certify", "C(2,2,2)", "--volume-table", str(table)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "bad volume" in captured.err and captured.err.count("\n") == 1


def test_certify_with_table_label(tmp_path, capsys):
    table = tmp_path / "volumes.csv"
    table.write_text("whitehead,see census,3.663862\n")
    assert (
        run_cli(
            ["certify", "C(2,2,-2)", "--volume-table", str(table), "--label", "whitehead"]
        )
        == 0
    )
    assert "inconclusive" in capsys.readouterr().out


def test_certify_with_an_unknown_label_exits_1(tmp_path, capsys):
    # the table has a row for the word, but a label picks the row or nothing
    table = tmp_path / "volumes.csv"
    table.write_text("big223,C(2,2,2),14.0\n")
    assert run_cli(["certify", "C(2,2,2)", "--volume-table", str(table), "--label", "nosuch"]) == 1
    assert "no table entry labeled 'nosuch'" in capsys.readouterr().err


def test_certify_with_a_table_reference_given_as_a_fraction(tmp_path, capsys):
    table = tmp_path / "volumes.csv"
    table.write_text("other,see census,3.0\nk323,24/7,9.0\n")
    assert run_cli(["certify", "C(3,2,3)", "--volume-table", str(table), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["volume"] == 9.0


def test_certify_with_two_matching_table_rows_exits_1(tmp_path, capsys):
    table = tmp_path / "volumes.csv"
    table.write_text("k323,C(3,2,3),9.0\nsame,24/7,9.5\n")
    assert run_cli(["certify", "C(3,2,3)", "--volume-table", str(table)]) == 1
    assert "2 table entries match" in capsys.readouterr().err


def test_certify_with_no_matching_table_row_exits_1(tmp_path, capsys):
    table = tmp_path / "volumes.csv"
    table.write_text("whitehead,C(2,2,-2),3.663862\nother,see census,3.0\n")
    assert run_cli(["certify", "C(3,2,3)", "--volume-table", str(table)]) == 1
    assert "no table entry matches the word" in capsys.readouterr().err


def test_certify_odd_b_exits_2(capsys):
    assert run_cli(["certify", "C(2,1,2)", "--volume", "14.0"]) == 2


@pytest.mark.parametrize("volume", ["inf", "-inf", "1e400", "nan"])
def test_certify_non_finite_volume_exits_1(volume, capsys):
    assert run_cli(["certify", "C(2,2,2)", f"--volume={volume}"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "finite" in err


@pytest.mark.parametrize("epsilon", ["-1", "-inf", "inf", "nan"])
def test_certify_bad_epsilon_exits_1_with_one_line(epsilon, capsys):
    assert run_cli(["certify", "C(2,2,2)", "--volume", "6.8", f"--epsilon={epsilon}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1 and "epsilon" in captured.err


def test_certify_non_finite_table_volume_exits_1(tmp_path, capsys):
    table = tmp_path / "volumes.csv"
    table.write_text("big,C(2,2,2),inf\n")
    assert run_cli(["certify", "C(2,2,2)", "--volume-table", str(table)]) == 1
    assert "finite" in capsys.readouterr().err


@given(st.floats(allow_nan=True, allow_infinity=True))
def test_certify_volume_exit_codes(volume):
    argv = ["certify", "C(2,2,2)", f"--volume={volume!r}"]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        status = run_cli(argv)
    assert status == (0 if math.isfinite(volume) and volume > 0 else 1)


def test_certify_needs_exactly_one_volume_source(capsys):
    assert run_cli(["certify", "C(2,2,2)"]) == 1
    assert run_cli(["certify", "C(2,2,2)", "--volume", "1", "--volume-table", "x"]) == 1


def test_render_subjects(tmp_path, capsys):
    for subject in ("curve", "strips", "model"):
        for variant in ("f2", "f3"):
            target = tmp_path / f"{subject}-{variant}.svg"
            assert (
                run_cli(
                    [
                        "render",
                        "C(3,2,3)",
                        "--subject",
                        subject,
                        "--variant",
                        variant,
                        "-o",
                        str(target),
                    ]
                )
                == 0
            )
            assert target.read_text().startswith("<?xml")


@pytest.mark.parametrize("variant", ["f2", "f3"])
@pytest.mark.parametrize("text", ["C(3,2,3)", "C(2,-4,2,2,-3)", "C(5)"])
def test_render_curve_and_strips_match_the_library(text, variant, capsys):
    curve = outer_smooth(build_plat_diagram(parse_conway(text)))
    if variant == "f3":
        curve = bigon_reduce(curve)
    expected = {
        "curve": render_svg(curve),
        "strips": render_svg(strip_decompose(curve, variant, "region")),
    }
    for subject, svg in expected.items():
        argv = ["render", text, "--subject", subject, "--variant", variant, "--granularity", "region"]
        assert run_cli(argv) == 0
        assert capsys.readouterr().out == svg


def test_render_f3_curve_shows_tangencies(capsys):
    assert run_cli(["render", "C(3,2,3)", "--subject", "curve", "--variant", "f3"]) == 0
    out = capsys.readouterr().out
    assert out.count('<g class="tangency">') == 1
    assert out.count('<g class="crossing">') == 0


def test_normalize_success(capsys):
    assert run_cli(["normalize", "C(2,1,2)"]) == 0
    out = capsys.readouterr().out
    assert "->" in out


def test_normalize_exhausted_exits_2(capsys):
    assert run_cli(["normalize", "C(2,1,2)", "--bound", "2"]) == 2
    assert "search exhausted" in capsys.readouterr().out


@pytest.mark.parametrize("text", ["C(2,1,2)", "C(3,2,3)"])
@pytest.mark.parametrize("bound", ["-1", "0"])
def test_normalize_with_a_bound_below_1_is_a_usage_error(text, bound, capsys):
    # no word has a magnitude sum below 1, so no bound below 1 can be met
    assert run_cli(["normalize", text, "--bound", bound]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error on {text!r}: --bound must be at least 1, got {bound}\n"


def test_normalize_returns_an_even_b_word_as_given_whatever_the_bound(capsys):
    # the bound caps a form built for an odd-b word; an even-b word is no built form
    assert run_cli(["normalize", "C(3,2,3)", "--bound", "2"]) == 0
    assert capsys.readouterr().out == "C(3,2,3) -> C(3,2,3)\n"
    with pytest.raises(SystemExit):
        run_cli(["normalize", "--help"])
    assert "an even-b word is returned as given" in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("text", ["C(1)", "C(-1)", "C(1,-2,1)"])
def test_normalize_of_a_degenerate_even_b_word_exits_1(text, capsys):
    assert run_cli(["normalize", text]) == 1
    captured = capsys.readouterr()
    assert not captured.out and "not a two-bridge fraction" in captured.err


def _long_odd_b_word() -> str:
    """A seeded 4001-entry word of entries from -3 to 3 with b_1 = 3."""
    rng = random.Random(4001)
    entries = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(4001)]
    entries[1] = 3
    return "C(" + ",".join(map(str, entries)) + ")"


def test_normalize_of_a_4001_entry_word_within_a_large_bound(capsys):
    text = _long_odd_b_word()
    tracemalloc.start()
    try:
        assert run_cli(["normalize", text, "--bound", "1000000"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert peak < 50 * 2**20 and not captured.err
    left, _, right = captured.out.strip().partition(" -> ")
    assert left == text
    form = parse_conway(right)
    assert all_b_even(form)
    assert schubert_equivalent(fraction_of(form), fraction_of(parse_conway(text)), allow_mirror=False)


def test_normalize_of_a_4001_entry_word_at_the_default_bound_exits_2_quickly(capsys):
    text = _long_odd_b_word()
    start = time.perf_counter()
    assert run_cli(["normalize", text]) == 2
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr().out.startswith("search exhausted: no even-b form of")


_VALUE = "x" * _MB


@pytest.mark.parametrize(
    "argv, value",
    [
        (["build", "C(3,2,3)", "--variant", _VALUE], _VALUE),
        (["build", "C(3,2,3)", "--variant=" + _VALUE], _VALUE),
        (["certify", "C(3,2,3)", "--volume", _VALUE], _VALUE),
        (["normalize", "C(2,1,2)", "--bound", "1" * _MB], "1" * _MB),
        (["analyze", "C(3,2,3)", _VALUE], _VALUE),
        (["build", "C(3,2,3)", "--variant", "f2", "-o", _VALUE], _VALUE),
        (["build", "C(3,2,3)", "--variant", "f2", "-o" + _VALUE], _VALUE),
        (["build", "C(3,2,3)", "--variant", "f2", "--out=" + _VALUE], _VALUE),
    ],
    ids=["invalid-choice", "invalid-choice-after-=", "invalid-float", "invalid-int", "unrecognized", "path", "path-after-o", "path-after-="],
)
def test_an_error_on_a_1_mb_option_value_quotes_its_ends_and_length(argv, value, capsys):
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err) < 1024
    assert f" ({len(value)} characters)" in captured.err


def test_the_parser_offers_the_vocabularies_of_the_library():
    assert (cli.VARIANTS, cli.GRANULARITIES) == (curves.VARIANTS, curves.GRANULARITIES)


def test_parse_error_exits_1(capsys):
    assert run_cli(["analyze", "C(3,x)"]) == 1


def test_degenerate_fraction_exits_1(capsys):
    assert run_cli(["analyze", "C(1)"]) == 1


def test_usage_error_exits_1(capsys):
    assert run_cli(["frobnicate"]) == 1
    assert run_cli(["build", "C(3,2,3)"]) == 1  # missing --variant


def test_an_error_names_the_word_as_given(capsys):
    assert run_cli(["build", " C(3,3,3)", "--variant", "f2"]) == 2
    assert capsys.readouterr().err.startswith("hypothesis failure on ' C(3,3,3)': ")


# no jobs to run the lines, and no --input file
@pytest.mark.parametrize(
    "text, jobs, message", [("C(3,2,3)\n", "0", "--jobs must be at least 1, got 0"), (None, "1", "[Errno 2] No such file")]
)
def test_an_error_with_no_word_names_none(tmp_path, capsys, text, jobs, message):
    words = tmp_path / "words.txt"
    if text is not None:
        words.write_text(text)
    argv = ["batch", "--command", "build", "--input", str(words), "--jobs", jobs, "--", "--variant", "f2"]
    assert run_cli(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_batch(tmp_path, capsys):
    words = tmp_path / "words.txt"
    words.write_text("# corpus\nC(3,2,3)\nC(2,1,2)\nC(5)\n")
    assert run_cli(["batch", "--command", "analyze", "--input", str(words)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    results = [json.loads(line) for line in lines]
    assert [r["input"] for r in results] == ["C(3,2,3)", "C(2,1,2)", "C(5)"]
    assert results[0]["exit"] == 0
    assert "fraction: 24/7" in results[0]["output"]


def test_batch_build_hypothesis_failures(tmp_path, capsys):
    words = tmp_path / "words.txt"
    words.write_text("C(3,2,3)\nC(2,1,2)\n")
    assert (
        run_cli(
            ["batch", "--command", "build", "--input", str(words), "--", "--variant", "f2"]
        )
        == 2
    )
    results = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
    assert results[0]["exit"] == 0
    assert results[1]["exit"] == 2


def test_batch_hard_error_wins(tmp_path, capsys):
    words = tmp_path / "words.txt"
    words.write_text("C(3,2,3)\nC(1)\nC(2,1,2)\n")
    assert run_cli(["batch", "--command", "analyze", "--input", str(words)]) == 1


def test_batch_of_no_words_exits_0_with_no_records(tmp_path, capsys):
    words = tmp_path / "words.txt"
    words.write_text("# no words\n\n   \n")
    assert run_cli(["batch", "--command", "analyze", "--input", str(words)]) == 0
    assert capsys.readouterr().out == ""


def test_batch_output_does_not_depend_on_jobs(tmp_path, capsys):
    words = tmp_path / "words.txt"
    words.write_text("C(3,2,3)\nC(2,1,2)\nC(3,x)\nC(2,4,2,-2,2)\nC(5)\n")
    runs = []
    for jobs in (["--jobs", "1"], ["--jobs", "3"], []):
        status = run_cli(["batch", "--command", "build", "--input", str(words), *jobs, "--", "--variant", "f2"])
        runs.append((status, capsys.readouterr().out))
    assert runs[0][0] == 1 and runs[0][1].count("\n") == 5
    assert runs[1] == runs[0] and runs[2] == runs[0]


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_batch_with_fewer_than_one_job_exits_1_with_no_records(tmp_path, capsys, jobs):
    words = tmp_path / "words.txt"
    words.write_text("C(3,2,3)\n")
    assert run_cli(["batch", "--command", "build", "--input", str(words), "--jobs", jobs, "--", "--variant", "f2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1


def test_batch_writes_each_record_before_the_next_line_runs(tmp_path, monkeypatch):
    out = io.StringIO()
    written = []  # the records in out as each line starts to assemble
    assemble = morse.assemble_stable_map

    def counted(*args):
        written.append(out.getvalue().count("\n"))
        return assemble(*args)

    monkeypatch.setattr(morse, "assemble_stable_map", counted)  # read there by each build
    words = tmp_path / "words.txt"
    words.write_text("C(3,2,3)\nC(2,1,2)\nC(2,2,2)\nC(5)\n")
    assert cli._dispatch(["batch", "--command", "build", "--input", str(words), "--", "--variant", "f2"], out) == 2
    assert written == [0, 1, 2, 3] and out.getvalue().count("\n") == 4


def _batch_records(capsys, argv: list[str]) -> tuple[int, list[dict]]:
    status = run_cli(argv)
    return status, [json.loads(line) for line in capsys.readouterr().out.splitlines()]


@pytest.mark.parametrize(
    "command, flags",
    [
        ("analyze", []),
        ("build", ["--variant", "f2"]),
        ("build", ["--variant", "f3", "--granularity", "fine"]),
        ("certify", ["--volume", "14.0"]),
        ("certify", ["--volume-table", "TABLE", "--json"]),
        ("render", []),
        ("normalize", []),
    ],
)
def test_batch_records_equal_single_runs(tmp_path, capsys, command, flags):
    table = tmp_path / "volumes.csv"
    table.write_text("big223,C(2,2,2),14.0\nk323,C(3,2,3),9.0\n")
    flags = [str(table) if flag == "TABLE" else flag for flag in flags]
    words = ["C(2,2,2)", "C(3,2,3)", "C(2,1,2)", "C(3,x)"]  # even b, even b, odd b, malformed
    batch = tmp_path / "words.txt"
    batch.write_text("".join(word + "\n" for word in words))
    status, records = _batch_records(capsys, ["batch", "--command", command, "--input", str(batch), "--", *flags])
    assert [record["input"] for record in records] == words
    singles = []
    for word, record in zip(words, records):
        singles.append(run_cli([command, *flags, word]))
        captured = capsys.readouterr()
        assert record["exit"] == singles[-1], word
        assert record.get("output", "") == captured.out, word
        assert record.get("error", "") in captured.err, word
    assert status == (1 if 1 in singles else 2 if 2 in singles else 0)


def test_batch_parses_the_flags_once_and_reads_each_line_as_a_word(tmp_path, capsys, monkeypatch):
    builds = []
    build_parser = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda: builds.append(1) or build_parser())
    words = tmp_path / "words.txt"
    words.write_text("C(3,2,3)\n-h\n--help\n--variant\nC(2,1,2)\n")
    argv = ["batch", "--command", "build", "--input", str(words), "--", "--variant", "f2"]
    status, records = _batch_records(capsys, argv)
    assert status == 1 and len(builds) == 1
    assert [record["input"] for record in records] == ["C(3,2,3)", "-h", "--help", "--variant", "C(2,1,2)"]
    for record in records[1:4]:
        with pytest.raises(ConwaySyntaxError) as raised:
            parse_conway(record["input"])
        assert record == {"input": record["input"], "exit": 1, "error": str(raised.value)}
    words.write_text("C(3,2,3)\nC(2,1,2)\n")
    assert _batch_records(capsys, argv) == (2, [records[0], records[4]])


@pytest.mark.parametrize("text", ["", "C(3,2,3)\n"])
@pytest.mark.parametrize(
    "command, flags",
    [
        ("build", []),  # no --variant
        ("build", ["--variant", "f2", "C(3,2,3)"]),  # a second word
        ("build", ["--variant", "f2", "-o", "OUT"]),
        ("render", ["--output=OUT"]),
    ],
)
def test_batch_reports_bad_flags_once_before_any_line(tmp_path, capsys, text, command, flags):
    words = tmp_path / "words.txt"
    words.write_text(text)
    target = tmp_path / "out"
    flags = [flag.replace("OUT", str(target)) for flag in flags]
    assert run_cli(["batch", "--command", command, "--input", str(words), "--", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("error:") == 1
    assert not target.exists()


def test_batch_reads_the_volume_table_once(tmp_path, capsys, monkeypatch):
    calls = {"ingest": 0, "reference": 0}

    def counted(name, function):
        def call(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return call

    monkeypatch.setattr(complexity, "ingest_volume_table", counted("ingest", complexity.ingest_volume_table))
    monkeypatch.setattr(cli, "_reference_fraction", counted("reference", cli._reference_fraction))
    table = tmp_path / "volumes.csv"
    table.write_text("big223,C(2,2,2),14.0\nk323,C(3,2,3),9.0\n")
    words = tmp_path / "words.txt"
    words.write_text("C(2,2,2)\nC(3,2,3)\nC(2,2,2)\nC(3,2,3)\n")
    argv = ["batch", "--command", "certify", "--input", str(words), "--", "--volume-table", str(table)]
    status, records = _batch_records(capsys, argv)
    assert status == 0 and [record["exit"] for record in records] == [0] * 4
    assert calls == {"ingest": 1, "reference": 2}


@pytest.mark.parametrize("table_text", [None, "big,C(2,2,2),zebra\n", "big,C(2,2,2),inf\n", "a,b,1.0\na,c,2.0\n"])
@pytest.mark.parametrize("batch", [False, True])
def test_a_bad_volume_table_is_one_error_before_any_word(tmp_path, capsys, table_text, batch):
    table = tmp_path / "volumes.csv"  # missing, malformed, non-finite, duplicate label
    if table_text is not None:
        table.write_text(table_text)
    words = tmp_path / "words.txt"
    words.write_text("C(2,2,2)\nC(3,2,3)\n")
    argv = ["batch", "--command", "certify", "--input", str(words), "--"] if batch else ["certify", "C(2,2,2)"]
    assert run_cli([*argv, "--volume-table", str(table)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1


def test_exit_code_matrix_in_subprocesses():
    matrix = [
        (["analyze", "C(3,2,3)"], 0),
        (["build", "--variant", "f2", "C(3,2,3)"], 0),
        (["build", "--variant", "f2", "C(2,1,2)"], 2),  # odd vertical twist
        (["certify", "C(2,2,2)", "--volume", "14.0"], 0),
        (["analyze", "C(3,0,3)"], 1),  # zero entry
        (["no-such-command"], 1),  # usage
    ]
    for argv, expected in matrix:
        proc = subprocess.run(
            [sys.executable, "-m", "twobridge.cli", *argv],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == expected, (argv, proc.stderr)
