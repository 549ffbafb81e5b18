"""Every small word through the whole pipeline, checked against the
independent oracles of ``oracles.py``.

Tier-1 sweeps the even-b words of magnitude sum at most 8, the search
oracle's witnesses for the odd-b words of magnitude sum at most 7, and
``even_b_normalize`` against that oracle on the odd-b words of magnitude
sum at most 8 and on the fractions with p at most 12 at every bound up to
40, finds an even-b form for every fraction with p below 60, and
compares the trace of C(100,2,100) with the oracle's.  The curves and
strip decompositions that the library reads off a word's regions are
checked against the oracle's plat pipeline on the same words, and on
long words drawn by ``hypothesis``.  The larger sweeps run
as a CI step:

    PYTHONPATH=src:tests python -c 'import test_exhaustive as t; print(t.sweep_even_b_words(12), t.check_word_regions(12), t.check_odd_b_words(8, 12), t.check_normalize_witnesses(9), t.check_normalize_against_search(9), t.check_normalize_bounds(30), t.check_every_fraction(300), t.check_ladder_trace(10000))'
"""

import contextlib
import io
from itertools import repeat
from math import gcd
from operator import is_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    all_entry_tuples,
    even_b_witnesses,
    goeritz_determinant_of_entries,
    least_even_b_witness,
    nearest_integer_expansion,
    oracle_curve_svg,
    oracle_model_svg,
    oracle_trace,
    plat_component_count_of_entries,
    plat_curve_runs,
    plat_strip_runs,
)
from twobridge import curves, morse, serialize
from twobridge.cli import run_cli
from twobridge.conway import (
    DEFAULT_SUM_BOUND,
    ConwayWord,
    FailureReport,
    SchubertFraction,
    _least_even_b_word,
    all_b_even,
    even_b_normalize,
    format_conway,
    fraction_of,
    schubert_equivalent,
)
from twobridge.curves import GRANULARITIES, VARIANTS, ImmersedCurve, StripDecomposition, bigon_reduce, build_plat_diagram, outer_smooth
from twobridge.errors import DegenerateFractionError, EvenBRequiredError
from twobridge.morse import assemble_stable_map, validate_model
from twobridge.render import render_svg
from twobridge.serialize import export_json, import_json


def _forget():
    """Drop the model assembled last and the text exported last, so the
    next call assembles and exports as a fresh process would."""
    morse._last_model.cache_clear()
    serialize.export_json.cache_clear()


def sweep_even_b_words(max_sum: int) -> tuple[int, int]:
    """Take every even-b word of ``all_entry_tuples(max_sum)`` through
    both variants at every granularity, and return the number of words
    and how many of them are degenerate.

    A word whose plat closure has determinant 0 or 1 is no two-bridge
    link, and its assembly must raise ``DegenerateFractionError``.  Any
    other model must have the closed-form census and the plat's component
    count, pass ``validate_model`` against a fresh assembly, survive a
    cold export and import unchanged to the byte, and render as the
    oracles draw it, as must its curve."""
    words = degenerate = 0
    for entries in all_entry_tuples(max_sum):
        word = ConwayWord(entries)
        if not all_b_even(word):
            continue
        words += 1
        if goeritz_determinant_of_entries(entries) < 2:
            degenerate += 1
            for variant in ("f2", "f3"):
                with pytest.raises(DegenerateFractionError):
                    assemble_stable_map(word, variant)
            continue
        census = {"f2": (2 * word.m, 0), "f3": (0, sum(abs(b) for b in word.b_entries) // 2)}
        components = plat_component_count_of_entries(entries)
        for variant in ("f2", "f3"):
            curve = outer_smooth(build_plat_diagram(word))
            curve = bigon_reduce(curve) if variant == "f3" else curve
            assert render_svg(curve) == oracle_curve_svg(curve), (word, variant)
            for granularity in GRANULARITIES:
                where = (format_conway(word), variant, granularity)
                _forget()
                model = assemble_stable_map(word, variant, granularity)
                got = model.census
                assert (got.ii2, got.ii3, got.definite_components, got.indefinite_circles) == (*census[variant], components, 1), where
                assert model.trace.count == components, where
                text = export_json(model)
                _forget()
                validate_model(model)
                _forget()
                imported = import_json(text)
                assert imported == model and export_json(imported) == text, where
                assert render_svg(model) == oracle_model_svg(model), where
    return words, degenerate


def _plain(strip) -> tuple:
    """A strip as the oracle writes one: kind, column runs, param."""
    return strip.kind, tuple(((c.kind, c.sign), n) for c, n in (strip.columns.runs if strip.columns else ())), strip.param


def _pattern_runs(strips) -> list:
    """A decomposition's strips as the oracle writes them
    (``oracles.plat_strip_runs``): per run, its strip and, at fine
    between the caps, the filler."""
    tail = () if strips.filler is None else (_plain(strips.filler),)
    runs = strips.runs
    return [((_plain(strip), *(tail if 0 < i < len(runs) - 1 else ())), n) for i, (strip, n) in enumerate(runs)]


def word_regions_agree(word: ConwayWord) -> int:
    """Hold the curves and strip decompositions of ``word``, for both
    variants at every granularity, to the oracle's plat pipeline, run by
    run: ``ImmersedCurve(word, variant).columns`` to
    ``oracles.plat_curve_runs`` and the strips to ``oracles.plat_strip_runs``.
    A decomposition's numbering is ``_numbered`` of its strips field by
    field (its values the same objects), and unless the word is
    degenerate, its assembly holds the same strips and numbering, and the
    blocks numbered as mapping each distinct strip through
    ``_catalogue_key`` numbers them.  Returns the number of models
    compared."""
    models = 0
    for variant in VARIANTS:
        columns = plat_curve_runs(word.entries, variant)
        assert [((c.kind, c.sign), n) for c, n in ImmersedCurve(word, variant).columns.runs] == columns, (format_conway(word), variant)
        for granularity in GRANULARITIES:
            where = (format_conway(word), variant, granularity)
            decomposition = StripDecomposition(word, variant, granularity)
            expected = plat_strip_runs(columns, granularity)
            assert _pattern_runs(decomposition.strips) == expected, where
            numbered, numbering = decomposition._slicing[1], curves._numbered(decomposition.strips)
            assert numbered == numbering and list(map(type, numbered)) == list(map(type, numbering)), where
            assert len(numbered.values) == len(numbering.values) and all(map(is_, numbered.values, numbering.values)), where
            try:
                fraction_of(word)
            except DegenerateFractionError:
                continue
            _forget()
            model = assemble_stable_map(word, variant, granularity)
            assert _pattern_runs(model.strips.strips) == expected and model._strips_numbered == numbering, where
            keys = map(morse._catalogue_key, numbering.values, repeat(variant))
            entries = morse._catalogued(numbering, list(map(morse._CATALOGUE.__getitem__, keys)))
            assert model._blocks_numbered == entries and model._blocks_numbered.values is morse._ENTRIES, where
            models += 1
    return models


def check_word_regions(max_sum: int) -> tuple[int, int]:
    """``word_regions_agree`` on every even-b word of ``all_entry_tuples(max_sum)``:
    the number of words and of the models compared."""
    words = models = 0
    for entries in all_entry_tuples(max_sum):
        word = ConwayWord(entries)
        if all_b_even(word):
            words, models = words + 1, models + word_regions_agree(word)
    return words, models


def _odd_b_words(max_sum: int):
    for entries in all_entry_tuples(max_sum):
        word = ConwayWord(entries)
        if not all_b_even(word):
            yield word


def check_odd_b_words(cli_max_sum: int, library_max_sum: int) -> tuple[int, int]:
    """Every odd-b word of ``all_entry_tuples(cli_max_sum)`` exits 2
    from ``build`` in both variants, and every one of ``all_entry_tuples(library_max_sum)``
    raises ``EvenBRequiredError`` from assembly in both variants.  Returns
    the two word counts."""
    cli_words = library_words = 0
    for cli_words, word in enumerate(_odd_b_words(cli_max_sum), 1):
        for variant in ("f2", "f3"):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                assert run_cli(["build", format_conway(word), "--variant", variant]) == 2, (word, variant)
    for library_words, word in enumerate(_odd_b_words(library_max_sum), 1):
        for variant in ("f2", "f3"):
            with pytest.raises(EvenBRequiredError):
                assemble_stable_map(word, variant)
    return cli_words, library_words


def check_normalize_witnesses(max_sum: int) -> tuple[int, int]:
    """Every witness of the search oracle (``oracles.even_b_witnesses``),
    for every odd-b word of ``all_entry_tuples(max_sum)`` whose fraction
    is two-bridge, is Schubert-equivalent to the word with the mirror off.
    Returns the number of words and of witnesses."""
    words = witnesses = 0
    for word in _odd_b_words(max_sum):
        try:
            f = fraction_of(word)
        except DegenerateFractionError:
            continue
        words += 1
        found = even_b_witnesses(f, DEFAULT_SUM_BOUND)
        for entries in found:
            assert schubert_equivalent(fraction_of(ConwayWord(entries)), f, allow_mirror=False), (word, entries)
        witnesses += len(found)
    return words, witnesses


# The fractions where the construction and the search oracle pick
# different words of the same length and sum: the search's word takes a
# step whose remainder grows, which the construction never does.
TIE_BREAK_FRACTIONS = {(29, 12), (29, 17), (35, 8), (35, 13), (35, 22), (35, 27)}


def _check_against_search(word: ConwayWord, f, sum_bound: int) -> None:
    """``even_b_normalize(word, sum_bound)`` is the search oracle's least
    witness, or, for ``TIE_BREAK_FRACTIONS``, a word of its length and sum."""
    got = even_b_normalize(word, sum_bound)
    want = least_even_b_witness(f, sum_bound)
    where = (format_conway(word), sum_bound, got, want)
    if want is None:
        assert isinstance(got, FailureReport), where
    elif (f.p, f.q) in TIE_BREAK_FRACTIONS:
        assert (len(got.entries), got.sum_abs) == (len(want), sum(map(abs, want))), where
    else:
        assert got == ConwayWord(want), where


def check_normalize_against_search(max_sum: int) -> int:
    """``even_b_normalize`` agrees with the search oracle on every odd-b
    word of ``all_entry_tuples(max_sum)`` whose fraction is two-bridge, at
    the default bound.  Returns the number of words."""
    words = 0
    for word in _odd_b_words(max_sum):
        try:
            f = fraction_of(word)
        except DegenerateFractionError:
            continue
        words += 1
        _check_against_search(word, f, DEFAULT_SUM_BOUND)
    return words


def check_normalize_bounds(max_p: int) -> int:
    """``even_b_normalize`` agrees with the search oracle on the odd-b
    nearest-integer word of every fraction p/q with p at most ``max_p``,
    at every sum bound from 1 to 40.  Returns the number of cases."""
    cases = 0
    for p in range(2, max_p + 1):
        for q in filter(lambda q: gcd(p, q) == 1, range(1, p)):
            word = ConwayWord(nearest_integer_expansion(p, q))
            if all_b_even(word):
                continue
            for sum_bound in range(1, 41):
                cases += 1
                _check_against_search(word, fraction_of(word), sum_bound)
    return cases


def check_every_fraction(max_p: int) -> int:
    """Every fraction p/q with p below ``max_p`` has an even-b form when
    the sum bound does not bind: an odd-length all-even-b word equivalent
    to p/q with the mirror off.  Returns the number of fractions."""
    fractions = 0
    for p in range(2, max_p):
        for q in filter(lambda q: gcd(p, q) == 1, range(1, p)):
            fractions += 1
            f = SchubertFraction(p, q)
            entries = _least_even_b_word(f, 10**6)
            assert entries is not None and len(entries) % 2 == 1, (f, entries)
            word = ConwayWord(entries)
            assert all_b_even(word) and schubert_equivalent(fraction_of(word), f, allow_mirror=False), (f, word)
    return fractions


def check_ladder_trace(k: int) -> int:
    """The components of the f2 and f3 models of C(k,2,k), written out
    run by run, against ``oracles.oracle_trace``, which walks every
    block.  Returns the number of punctures compared."""
    word = ConwayWord((k, 2, k))
    punctures = 0
    for variant in ("f2", "f3"):
        _forget()
        model = assemble_stable_map(word, variant)
        expected = oracle_trace(tuple(model.blocks))
        assert model.trace.components == expected, variant
        punctures += sum(map(len, expected))
    return punctures


def test_every_even_b_word_up_to_magnitude_sum_8():
    assert sweep_even_b_words(8) == (320, 28)


def test_the_word_walk_slices_every_even_b_word_up_to_magnitude_sum_8_as_the_plat_does():
    assert check_word_regions(8) == (320, 6 * (320 - 28))


# up to 41 entries of up to 10**5 crossings each, every b entry even
long_even_b_words = (
    st.lists(st.integers(-(10**5), 10**5).filter(bool), min_size=1, max_size=41)
    .filter(lambda l: len(l) % 2 == 1)
    .map(lambda l: ConwayWord(tuple(2 * (e // 2) or 2 if i % 2 else e for i, e in enumerate(l))))
)


@settings(deadline=None, max_examples=100)
@given(long_even_b_words)
def test_the_word_walk_slices_and_numbers_long_words_as_the_plat_does(word):
    word_regions_agree(word)


def test_every_normalize_witness_up_to_magnitude_sum_7():
    assert check_normalize_witnesses(7) == (672, 2408)


def test_normalize_agrees_with_search_up_to_magnitude_sum_8():
    assert check_normalize_against_search(8) == 2248


def test_normalize_agrees_with_search_at_every_bound_up_to_p_12():
    assert check_normalize_bounds(12) == 640


def test_every_fraction_below_p_60_has_an_even_b_form():
    assert check_every_fraction(60) == 1085


def test_the_trace_of_a_ladder_word_agrees_with_the_oracle():
    assert check_ladder_trace(100) == 2 * 4 * (2 * 100 + 2)
