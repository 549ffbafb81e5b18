"""Conway notation, fractions, equivalence, and parity normalization."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    goeritz_determinant_of_entries,
    nearest_integer_expansion,
    orbit_equivalent,
    parse_conway_oracle,
    plat_component_count_of_entries,
)
from twobridge.conway import (
    ConwayWord,
    FailureReport,
    SchubertFraction,
    _continuant,
    all_b_even,
    component_count,
    even_b_normalize,
    format_conway,
    fraction_of,
    is_reduced_alternating,
    parse_conway,
    schubert_equivalent,
    transform,
    twist_number,
)
from twobridge.errors import (
    ConwaySyntaxError,
    DegenerateFractionError,
    EvenLengthError,
    NotReducedAlternatingError,
    ZeroEntryError,
)

entry = st.integers(min_value=-9, max_value=9).filter(lambda e: e != 0)
words = st.lists(entry, min_size=1, max_size=9).filter(lambda l: len(l) % 2 == 1).map(
    lambda l: ConwayWord(tuple(l))
)
odd_b_words = (
    st.integers(min_value=1, max_value=20)
    .flatmap(lambda m: st.lists(entry, min_size=2 * m + 1, max_size=2 * m + 1))
    .map(lambda l: ConwayWord(tuple(l)))
    .filter(lambda word: not all_b_even(word))
)


# --- parsing ----------------------------------------------------------------

def test_parse_paren_form():
    assert parse_conway("C(3,2,3)").entries == (3, 2, 3)


def test_parse_bracket_form():
    assert parse_conway("[2,-2,2]").entries == (2, -2, 2)


def test_parse_is_whitespace_insensitive():
    assert parse_conway(" C( 3 , -2 ,\t3 ) ").entries == (3, -2, 3)


def test_parse_zero_entry():
    with pytest.raises(ZeroEntryError):
        parse_conway("C(3,0,3)")


def test_parse_even_length():
    with pytest.raises(EvenLengthError):
        parse_conway("C(2,2)")


@pytest.mark.parametrize(
    "bad", ["C(3,2,3", "3,2,3", "C()", "C(a,b)", "C(3,,3)", "[1,2)", "C(+3)", "C(-)"]
)
def test_parse_rejects_bad_grammar(bad):
    with pytest.raises(ConwaySyntaxError):
        parse_conway(bad)


def test_parse_names_an_empty_entry_list():
    with pytest.raises(ConwaySyntaxError, match="empty entry list"):
        parse_conway("C()")


@pytest.mark.parametrize("bad", ["C(\u00b2)", "C(" + "1" * 5000 + ")"])
def test_parse_rejects_integers_int_cannot_read(bad):
    # a superscript digit passes str.isdigit; 5000 digits exceed int()'s limit
    with pytest.raises(ConwaySyntaxError):
        parse_conway(bad)


@pytest.mark.parametrize("digits", ["\uff11", "\u0663", "\uff11\uff12"])
def test_parse_reads_only_ascii_digits(digits):
    # fullwidth and Arabic-Indic digits pass str.isdigit and int()
    for text in (f"C({digits},2,3)", f"[3,-{digits},3]"):
        with pytest.raises(ConwaySyntaxError, match="bad integer"):
            parse_conway(text)


# Texts near Conway notation: its pieces, whitespace, digits int() reads
# but parse_conway must not, and integers past int()'s 4300 digits; and
# entry lists, framed or not, with at most one entry that is none.
_LONG = ("1" * 4301, "-" + "9" * 4300, "0" * 4400)
_pieces = st.sampled_from([*"0123456789", "-", ",", " ", "\t", "\n", "C(", ")", "[", "]", "\u0663", "\u00b2", *_LONG])
_odd_tokens = st.sampled_from(["", "-", "--3", "3-", "+3", "\u0663", "2\u00b2", " ", *_LONG])
_frames = st.sampled_from([("C(", ")"), ("[", "]"), (" C\t( ", " )\n"), ("C(", "]"), ("(", ")"), ("", "")])


def _framed(tokens: list[str], odd: list[str], frame: tuple[str, str]) -> str:
    tokens[len(tokens) // 2 : len(tokens) // 2] = odd
    return frame[0] + ",".join(tokens) + frame[1]


near_conway = st.one_of(
    st.lists(_pieces, max_size=12).map("".join),
    st.builds(_framed, st.lists(st.integers(-30, 30).map(str), max_size=7), st.lists(_odd_tokens, max_size=1), _frames),
)


@settings(max_examples=300)
@given(near_conway)
def test_parse_agrees_with_the_character_scan(text):
    try:
        got = "ConwayWord", parse_conway(text).entries
    except (ConwaySyntaxError, ZeroEntryError, EvenLengthError) as err:
        got = type(err).__name__, str(err)
    assert got == parse_conway_oracle(text)


@given(words)
def test_format_parse_roundtrip(word):
    assert parse_conway(format_conway(word)) == word
    assert format_conway(word) == f"C({','.join(str(e) for e in word.entries)})"


# --- fractions --------------------------------------------------------------

def test_fraction_single_region():
    assert fraction_of(ConwayWord((5,))) == SchubertFraction.normalized(5, 1)


def test_fraction_plain_convention_example():
    # cont(2,2,2) = 2 + 1/(2 + 1/2) = 12/5
    assert fraction_of(ConwayWord((2, 2, 2))) == SchubertFraction.normalized(12, 5)


def test_fraction_agrees_with_determinant_oracle_on_anchor():
    word = ConwayWord((3, 2, 3))
    f = fraction_of(word)
    assert f.p == goeritz_determinant_of_entries(word.entries) == 24


def test_fraction_degenerate_unknot():
    with pytest.raises(DegenerateFractionError):
        fraction_of(ConwayWord((1,)))


def test_fraction_degenerate_zero():
    # cont(1,-2,1) = 1 + 1/(-2 + 1) = 0
    with pytest.raises(DegenerateFractionError):
        fraction_of(ConwayWord((1, -2, 1)))


@pytest.mark.parametrize(
    "p, q, message",
    [(1, 0, "p = 1 < 2"), (5, 7, "q = 7 outside"), (6, 4, "gcd(6, 4) != 1"), (5, 0, "gcd(5, 0) != 1")],
)
def test_a_fraction_built_directly_is_checked(p, q, message):
    with pytest.raises(DegenerateFractionError, match=re.escape(message)):
        SchubertFraction(p, q)


def test_a_fraction_computes_its_inverse_when_first_read():
    f = fraction_of(ConwayWord((3, 4, 5)))
    assert (f.p, f.q) == (68, 21) and "q_inverse" not in vars(f)
    assert f.q_inverse == pow(f.q, -1, f.p) == 13
    assert "q_inverse" in vars(f)


@pytest.mark.parametrize("p, q, message", [(6, 4, r"gcd\(6, 4\) != 1"), (4, 8, r"gcd\(4, 0\) != 1")])
def test_normalizing_a_fraction_that_is_not_coprime_raises(p, q, message):
    with pytest.raises(DegenerateFractionError, match=message):
        SchubertFraction.normalized(p, q)


@given(words)
def test_fraction_normalization_invariants(word):
    try:
        f = fraction_of(word)
    except DegenerateFractionError:
        return
    assert f.p >= 2
    assert 0 < f.q < f.p
    assert (f.q * f.q_inverse) % f.p == 1


@given(words)
def test_fraction_p_matches_determinant_oracle(word):
    p_raw, _ = _continuant(word.entries)
    assert abs(p_raw) == goeritz_determinant_of_entries(word.entries)


# --- equivalence ------------------------------------------------------------

def test_equivalent_by_inverse():
    # 2 * 3 = 6 = 1 mod 5
    f1 = SchubertFraction.normalized(5, 2)
    f2 = SchubertFraction.normalized(5, 3)
    assert schubert_equivalent(f1, f2, allow_mirror=False)


def test_equivalent_reflexive():
    f = SchubertFraction.normalized(5, 2)
    assert schubert_equivalent(f, f, allow_mirror=False)


def test_not_equivalent():
    f1 = SchubertFraction.normalized(7, 2)
    f2 = SchubertFraction.normalized(7, 3)
    assert not schubert_equivalent(f1, f2, allow_mirror=False)
    assert schubert_equivalent(f1, f2, allow_mirror=True)  # -2^{-1} = -4 = 3 mod 7


def test_the_mirror_choice_is_stated_by_keyword():
    f = SchubertFraction.normalized(5, 2)
    for args in ((f, f), (f, f, False)):  # no default, and not positional
        with pytest.raises(TypeError):
            schubert_equivalent(*args)


@given(
    st.integers(min_value=2, max_value=40),
    st.data(),
)
def test_equivalence_matches_orbit_enumeration(p, data):
    coprime = [q for q in range(1, p) if __import__("math").gcd(p, q) == 1]
    q1 = data.draw(st.sampled_from(coprime))
    q2 = data.draw(st.sampled_from(coprime))
    f1 = SchubertFraction.normalized(p, q1)
    f2 = SchubertFraction.normalized(p, q2)
    for allow_mirror in (False, True):
        assert schubert_equivalent(f1, f2, allow_mirror=allow_mirror) == orbit_equivalent(p, q1, q2, allow_mirror)


# --- components, parity, twist number ---------------------------------------

@pytest.mark.parametrize(
    "pq,expected", [((2, 1), 2), ((3, 1), 1), ((8, 3), 2)]
)
def test_component_count(pq, expected):
    assert component_count(SchubertFraction.normalized(*pq)) == expected


@given(words)
def test_component_count_matches_strand_tracing(word):
    try:
        f = fraction_of(word)
    except DegenerateFractionError:
        return
    assert component_count(f) == plat_component_count_of_entries(word.entries)


def test_a_and_b_entries_alternate_from_the_first_entry():
    word = ConwayWord((3, 2, -5, 4, 7))
    assert word.a_entries == (3, -5, 7) and word.b_entries == (2, 4) and word.m == 2
    assert ConwayWord((7,)).a_entries == (7,) and ConwayWord((7,)).b_entries == ()


def test_all_b_even():
    assert all_b_even(ConwayWord((3, 2, 3)))
    assert not all_b_even(ConwayWord((2, 1, 2)))
    assert all_b_even(ConwayWord((7,)))  # m = 0, vacuous
    assert not all_b_even(ConwayWord((2, -3, 2))) and all_b_even(ConwayWord((2, -4, 2, -2, 2)))


@given(st.lists(st.integers(min_value=-(10**30), max_value=10**30).filter(bool), min_size=1, max_size=11))
def test_all_b_even_agrees_with_the_remainder_of_each_b(entries):
    # negative odd and negative even entries, and ints past a machine word
    word = ConwayWord(tuple(entries[: len(entries) - 1 + len(entries) % 2]))
    assert all_b_even(word) is all(b % 2 == 0 for b in word.b_entries)


@pytest.mark.parametrize("entries,tw", [((2, 2, 2), 3), ((2, 2, 2, 2, 2), 5), ((7,), 1)])
def test_twist_number(entries, tw):
    assert twist_number(ConwayWord(entries)) == tw == len(entries)


@pytest.mark.parametrize("entries", [(2, 1, 2), (2, -2, 2), (1,), (-2, 2, -2, 2, 3)])
def test_twist_number_requires_reduced_alternating(entries):
    word = ConwayWord(entries)
    assert not is_reduced_alternating(word)
    with pytest.raises(NotReducedAlternatingError):
        twist_number(word)


def test_twist_number_negative_words():
    assert twist_number(ConwayWord((-2, -4, -2))) == 3


# --- transforms -------------------------------------------------------------

def test_mirror_negates():
    assert transform(ConwayWord((3, 2, 3)), "mirror").entries == (-3, -2, -3)


def test_reverse_reverses():
    assert transform(ConwayWord((2, 4, 6)), "reverse").entries == (6, 4, 2)


def test_transform_unknown_kind():
    with pytest.raises(ValueError):
        transform(ConwayWord((3,)), "rotate")


@given(words)
def test_reverse_is_equivalent_under_mirror_policy(word):
    try:
        f = fraction_of(word)
    except DegenerateFractionError:
        return
    g = fraction_of(transform(word, "reverse"))
    assert schubert_equivalent(f, g, allow_mirror=True)


# --- even-b normalization ---------------------------------------------------

def test_normalize_fixed_point():
    word = ConwayWord((3, 2, 3))
    assert even_b_normalize(word) is word


def test_normalize_two_component_example():
    word = ConwayWord((2, 1, 2))  # 8/3, p even
    result = even_b_normalize(word)
    assert isinstance(result, ConwayWord)
    assert all_b_even(result)
    assert len(result.entries) % 2 == 1
    assert schubert_equivalent(fraction_of(result), fraction_of(word), allow_mirror=False)


def test_normalize_finds_figure_eight_form():
    # 5/2 (from the nearest-integer expansion) has the even-b form C(1,2,-2)
    word = ConwayWord(nearest_integer_expansion(5, 2))
    result = even_b_normalize(word)
    assert isinstance(result, ConwayWord)
    assert all_b_even(result)
    assert fraction_of(result).p == 5


@pytest.mark.parametrize("entries", [(1,), (-1,), (1, -2, 1)])
def test_normalize_of_a_degenerate_even_b_word_raises(entries):
    with pytest.raises(DegenerateFractionError):
        even_b_normalize(ConwayWord(entries))


def test_normalize_has_no_length_cap():
    # 42837/12970: its shortest even-b form has 13 entries
    word = parse_conway("C(3,3,3,3,3,3,3,3,3)")
    assert even_b_normalize(word) == parse_conway("C(-1,-2,-3,-4,1,2,3,4,-1,-2,-3,-2,-1)")


@given(odd_b_words)
@settings(max_examples=50, deadline=None)
def test_normalize_gives_an_equivalent_even_b_word_of_any_length(word):
    try:
        f = fraction_of(word)
    except DegenerateFractionError:
        return
    result = even_b_normalize(word, sum_bound=10**6)
    assert isinstance(result, ConwayWord)
    assert len(result.entries) % 2 == 1 and all_b_even(result)
    assert schubert_equivalent(fraction_of(result), f, allow_mirror=False)
    # reversal keeps the mirror-free class, so the construction starts alike
    assert even_b_normalize(transform(word, "reverse"), sum_bound=10**6) == result


def test_normalize_reports_exhausted_bounds():
    word = ConwayWord((2, 1, 2))
    report = even_b_normalize(word, sum_bound=2)
    assert isinstance(report, FailureReport)
    assert report.sum_bound == 2
    assert "not excluded" in report.note


@given(st.integers(min_value=1, max_value=19))
@settings(max_examples=30, deadline=None)
def test_normalize_succeeds_for_every_small_even_p(k):
    p = 2 * k + 2
    qs = [q for q in range(1, p) if __import__("math").gcd(p, q) == 1]
    q = qs[k % len(qs)]
    word = ConwayWord(nearest_integer_expansion(p, q))
    result = even_b_normalize(word)
    assert isinstance(result, ConwayWord), f"search failed for {p}/{q}"
    assert all_b_even(result)
    assert schubert_equivalent(
        fraction_of(result), SchubertFraction.normalized(p, q), allow_mirror=False
    )


@given(
    st.lists(st.integers(-(10**5), 10**5).filter(bool), min_size=1, max_size=41).filter(lambda l: len(l) % 2 == 1)
)
def test_reversing_and_mirroring_a_word_keep_its_fraction_class_at_every_size(entries):
    # checked by multiplication alone, apart from the library's arithmetic:
    # reversing keeps p and inverts q mod p, mirroring sends q to p - q
    word = ConwayWord(tuple(entries))
    try:
        fraction = fraction_of(word)
    except DegenerateFractionError:
        return
    reverse, mirror = fraction_of(transform(word, "reverse")), fraction_of(transform(word, "mirror"))
    assert reverse.p == fraction.p and (fraction.q * reverse.q - 1) % fraction.p == 0
    assert (mirror.p, mirror.q) == (fraction.p, fraction.p - fraction.q)
