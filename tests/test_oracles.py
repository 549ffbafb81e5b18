"""Self-checks for the oracle layer itself.

The oracles judge the library, so they get their own sanity tests
against third facts: literature constants, hand determinants, the
library-independent continued-fraction identity, and the per-crossing
plat layout of the determinant oracle.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    A_STRANDS,
    _braid_signs,
    _pattern_strand_sequence,
    all_entry_tuples,
    bareiss_determinant,
    compositions,
    goeritz_determinant_of_entries,
    nearest_integer_expansion,
    octahedron_volume_oracle,
    orbit_equivalent,
    plat_component_count_of_entries,
    plat_crossing_runs,
    plat_curve_runs,
    plat_strip_runs,
)


def _cont(entries):
    value = Fraction(entries[-1])
    for c in reversed(entries[:-1]):
        value = c + 1 / value
    return value


@given(st.integers(min_value=2, max_value=400), st.data())
def test_expansion_reproduces_the_fraction(p, data):
    q = data.draw(
        st.integers(min_value=1, max_value=p - 1).filter(lambda q: gcd(p, q) == 1)
    )
    entries = nearest_integer_expansion(p, q)
    assert len(entries) % 2 == 1
    assert all(e != 0 for e in entries)
    assert _cont(entries) == Fraction(p, q)


def test_bareiss_known_values():
    assert bareiss_determinant([]) == 1
    assert bareiss_determinant([[7]]) == 7
    assert bareiss_determinant([[1, 2], [3, 4]]) == -2
    assert bareiss_determinant([[2, 0, 1], [1, 1, 0], [0, 3, 1]]) == 5
    assert bareiss_determinant([[1, 2], [2, 4]]) == 0


def test_bareiss_column_swap_pivoting():
    assert bareiss_determinant([[0, 1], [1, 0]]) == -1
    assert bareiss_determinant([[0, 2, 1], [1, 0, 0], [0, 1, 1]]) == -1


@given(st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3), min_size=3, max_size=3))
def test_bareiss_matches_cofactor_expansion(rows):
    m = rows
    expected = (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )
    assert bareiss_determinant(m) == expected


def test_octahedron_volume_matches_literature_digits():
    assert octahedron_volume_oracle() == pytest.approx(3.663862376708876, abs=1e-10)


def test_determinant_oracle_on_named_links():
    assert goeritz_determinant_of_entries((3,)) == 3  # trefoil
    assert goeritz_determinant_of_entries((2,)) == 2  # Hopf link
    assert goeritz_determinant_of_entries((1, 2, -2)) == 5  # figure-eight
    assert goeritz_determinant_of_entries((2, 2, -2)) == 8  # Whitehead link
    assert goeritz_determinant_of_entries((1,)) == 1  # unknot presentation


def test_component_oracle_on_named_links():
    assert plat_component_count_of_entries((3,)) == 1
    assert plat_component_count_of_entries((2,)) == 2
    assert plat_component_count_of_entries((1, 2, -2)) == 1
    assert plat_component_count_of_entries((2, 2, -2)) == 2


def test_determinant_oracle_is_mirror_invariant():
    for entries in [(3,), (3, 2, 3), (2, -4, 2), (1, 2, -2)]:
        mirrored = tuple(-e for e in entries)
        assert goeritz_determinant_of_entries(entries) == goeritz_determinant_of_entries(
            mirrored
        )


def test_orbit_equivalent_basics():
    assert orbit_equivalent(5, 2, 3, False)  # inverses
    assert not orbit_equivalent(7, 2, 3, False)
    assert orbit_equivalent(7, 2, 3, True)  # -4 = 3 mod 7
    assert orbit_equivalent(12, 5, 5, False)


def test_compositions_counts():
    assert sorted(compositions(4, 2)) == [(1, 3), (2, 2), (3, 1)]
    assert sum(1 for _ in compositions(8, 3)) == 21  # C(7, 2)


def test_entry_tuple_enumeration_count():
    # lengths are odd, entries nonzero: 2 one-entry words per total 1 and 2,
    # plus the first length-3 words at total 3
    words = list(all_entry_tuples(3))
    assert len(words) == 2 + 2 + (2 + 8)
    assert all(len(w) % 2 == 1 for w in words)
    assert all(all(e != 0 for e in w) for w in words)


def _expanded(runs):
    return [item for item, count in runs for _ in range(count)]


def test_plat_oracle_crossings_on_named_words():
    middle, top = (A_STRANDS, 1, 1, True), ((1, 2), -1, 1, False)
    assert plat_crossing_runs((3, 2, 3)) == [(middle, 3), (top, 2), (middle, 3)]
    assert plat_crossing_runs((5,)) == [(middle, 5)]
    # a negative b maps to a positive braid exponent under the alternating rule
    assert plat_crossing_runs((2, -2, 2))[1] == (((1, 2), 1, -1, False), 2)
    assert plat_crossing_runs((-3, 2, 3))[0] == ((A_STRANDS, -1, -1, True), 3)


@given(st.lists(st.integers(-6, 6).filter(bool), min_size=1, max_size=7).filter(lambda l: len(l) % 2 == 1))
def test_plat_oracle_crossings_are_the_per_crossing_layout_of_the_determinant_oracle(entries):
    crossings = _expanded(plat_crossing_runs(entries))
    strands = _pattern_strand_sequence(tuple(map(abs, entries)))
    assert [strand for strand, _, _, _ in crossings] == strands
    assert [sign for _, sign, _, _ in crossings] == _braid_signs(entries)
    assert [sign for _, _, sign, _ in crossings] == [e // abs(e) for e in entries for _ in range(abs(e))]
    assert [outer for _, _, _, outer in crossings] == [s == A_STRANDS for s in strands]
    # the f2 curve smooths exactly the outer-adjacent crossings
    assert [kind for kind, _ in _expanded(plat_curve_runs(entries, "f2"))] == ["pass" if s == A_STRANDS else "crossing" for s in strands]


def test_plat_oracle_curves_and_strips_on_named_words():
    assert plat_curve_runs((3, 2, 3), "f2") == [(("pass", 1), 3), (("crossing", 1), 2), (("pass", 1), 3)]
    assert plat_curve_runs((2, -4, 2), "f3") == [(("pass", 1), 2), (("tangency", -1), 2), (("pass", 1), 2)]
    with pytest.raises(AssertionError, match="unpaired"):
        plat_curve_runs((2, 3, 2), "f3")
    columns = plat_curve_runs((3, 2, 3), "f2")
    cap_in, cap_out, filler = ("type1", (), 0), ("type4", (), 0), ("type3", (), 0)
    clasp = ("type2", ((("crossing", 1), 2),), 2)  # the whole b-region, signed
    assert plat_strip_runs(columns, "region") == [((cap_in,), 1), ((("type3", ((("pass", 1), 3),), 3),), 1), ((clasp,), 1), ((("type3", ((("pass", 1), 3),), 3),), 1), ((cap_out,), 1)]
    one = ("type3", ((("pass", 1), 1),), 1)
    assert plat_strip_runs(columns, "crossing") == [((cap_in,), 1), ((one,), 3), ((clasp,), 1), ((one,), 3), ((cap_out,), 1)]
    assert plat_strip_runs(columns, "fine") == [((cap_in,), 1), ((one, filler), 3), ((clasp, filler), 1), ((one, filler), 3), ((cap_out,), 1)]
    # one strip per tangency in f3
    assert plat_strip_runs(plat_curve_runs((2, 4, 2), "f3"), "region")[2] == ((("type2", ((("tangency", 1), 1),), 1),), 2)
