"""Complexity bounds, the certificate chain, and volume tables."""

import dataclasses
import functools
import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracles import V_OCT_DIGITS, certify_cases, eager_chain, octahedron_volume_oracle
from twobridge.complexity import (
    DEFAULT_EPSILON,
    Certificate,
    ComplexityBounds,
    V_OCT,
    VolumeRecord,
    certify_smc,
    ingest_volume_table,
    smc_lower_bound_from_volume,
    smc_upper_bound,
    volume_upper_bound,
    weighted_sum,
)
from twobridge.conway import ConwayWord, parse_conway
from twobridge.errors import (
    DuplicateLabelError,
    EvenBRequiredError,
    NonFiniteVolumeError,
    NonPositiveVolumeError,
    NotReducedAlternatingError,
    TableParseError,
    TorusCaseError,
)
from twobridge.morse import SingularFiberCensus, assemble_stable_map


def _census(ii2, ii3):
    return SingularFiberCensus(ii2=ii2, ii3=ii3, definite_components=1, indefinite_circles=1)


def test_v_oct_matches_lobachevsky_oracle():
    assert V_OCT == pytest.approx(octahedron_volume_oracle(), abs=1e-9)
    assert V_OCT_DIGITS == V_OCT  # the value the certificate oracles write out


def test_v_oct_matches_four_digit_value():
    # the documented approximation 3.6638 is the truncation to 4 decimals
    assert math.floor(V_OCT * 10**4) / 10**4 == 3.6638


@pytest.mark.parametrize("census,expected", [((2, 0), 2), ((0, 1), 2), ((0, 0), 0)])
def test_weighted_sum(census, expected):
    assert weighted_sum(_census(*census)) == expected


def test_smc_upper_bound():
    bounds = smc_upper_bound(ConwayWord((3, 2, 3)))
    assert bounds.smc_upper == 2
    assert bounds.f3_weighted_sum == 2


def test_smc_upper_bound_reports_f3_alternative():
    bounds = smc_upper_bound(ConwayWord((2, 4, 2, 2, 2)))
    assert bounds.smc_upper == 4
    assert bounds.f3_weighted_sum == 6


def test_smc_upper_bound_requires_even_b():
    with pytest.raises(EvenBRequiredError):
        smc_upper_bound(ConwayWord((2, 1, 2)))


def test_smc_lower_bound_examples():
    assert smc_lower_bound_from_volume(7.5) == 2
    assert smc_lower_bound_from_volume(3.6638) == 1


def test_smc_lower_bound_rejects_nonpositive():
    with pytest.raises(NonPositiveVolumeError):
        smc_lower_bound_from_volume(0)


def test_volume_upper_bound():
    assert volume_upper_bound(ConwayWord((2, 2, 2))) == pytest.approx(4 * V_OCT)
    assert volume_upper_bound(ConwayWord((2, 2, 2))) == pytest.approx(14.6554, abs=1e-4)
    assert volume_upper_bound(ConwayWord((2, 2, 2, 2, 2))) == pytest.approx(8 * V_OCT)


def test_volume_upper_bound_preconditions():
    with pytest.raises(NotReducedAlternatingError):
        volume_upper_bound(ConwayWord((2, 1, 2)))
    with pytest.raises(TorusCaseError):
        volume_upper_bound(ConwayWord((5,)))


# --- certificates -------------------------------------------------------------

def test_certified_at_large_volume():
    certificate = certify_smc(ConwayWord((2, 2, 2)), 14.0)
    assert certificate.status == "certified"
    assert certificate.smc_value == 2
    assert certificate.threshold == pytest.approx(2 * V_OCT)
    assert not certificate.volume_inconsistent
    assert certificate.lower_bound <= certificate.upper_bound
    assert any("4m-2" in step for step in certificate.chain)


def test_inconclusive_at_whitehead_scale_volume():
    certificate = certify_smc(ConwayWord((2, 2, 2)), 3.6639)
    assert certificate.status == "inconclusive"
    assert certificate.smc_value is None


def test_certify_requires_even_b():
    with pytest.raises(EvenBRequiredError):
        certify_smc(ConwayWord((2, 1, 2)), 10.0)


@pytest.mark.parametrize(
    "volume, error",
    [(math.nan, NonFiniteVolumeError), (math.inf, NonFiniteVolumeError), (0.0, NonPositiveVolumeError)],
)
def test_certify_checks_the_volume_before_the_word(volume, error):
    # an odd-b word with a bad volume raises the volume's error, not EvenBRequiredError
    with pytest.raises(error):
        certify_smc(ConwayWord((2, 1, 2)), volume)


def test_certify_torus_word_is_inapplicable():
    certificate = certify_smc(ConwayWord((5,)), 10.0)
    assert certificate.status == "inapplicable"
    assert certificate.smc_value is None


def test_certify_rejects_nonpositive_volume():
    with pytest.raises(NonPositiveVolumeError):
        certify_smc(ConwayWord((2, 2, 2)), 0.0)


def test_certify_never_certifies_within_epsilon():
    threshold = 2 * V_OCT
    certificate = certify_smc(ConwayWord((2, 2, 2)), threshold + 1e-12)
    assert certificate.status == "inconclusive"
    certificate = certify_smc(ConwayWord((2, 2, 2)), threshold + 1e-6)
    assert certificate.status == "certified"


@pytest.mark.parametrize("epsilon", [-1.0, -1e-12, -math.inf, math.inf, math.nan])
def test_certify_rejects_a_negative_or_non_finite_epsilon(epsilon):
    # a volume below the threshold certifies once the margin is negative
    with pytest.raises(ValueError, match="epsilon"):
        certify_smc(ConwayWord((2, 2, 2)), 2 * V_OCT - 0.5, epsilon=epsilon)
    assert certify_smc(ConwayWord((2, 2, 2)), 2 * V_OCT - 0.5, epsilon=0.0).status == "inconclusive"


def test_certify_flags_inconsistent_volume():
    # above the 4m * V_oct cap: lower bound exceeds 2m
    certificate = certify_smc(ConwayWord((2, 2, 2)), 4 * V_OCT + 1.0)
    assert certificate.volume_inconsistent
    assert certificate.lower_bound > certificate.upper_bound
    assert certificate.status == "certified"  # status stays monotone


def test_the_chain_is_written_when_first_read_and_reads_as_the_eager_text():
    # not a field: equality, hashing and the constructor ignore it
    assert "chain" not in {f.name for f in dataclasses.fields(Certificate)}
    assert isinstance(vars(Certificate)["chain"], functools.cached_property)
    for text, volume in certify_cases():
        word = parse_conway(text)
        for epsilon in (0.0, DEFAULT_EPSILON, 0.5):
            certificate = certify_smc(word, volume, epsilon)
            assert "chain" not in vars(certificate)
            assert certificate.chain == eager_chain(word.entries, volume, epsilon), (text, volume, epsilon)
            assert vars(certificate)["chain"] is certificate.chain


def test_certificate_agrees_with_f2_model_weight():
    word = ConwayWord((2, 2, 2))
    model = assemble_stable_map(word, "f2")
    certificate = certify_smc(word, 14.0)
    assert certificate.smc_value == weighted_sum(model.census) == smc_upper_bound(word).smc_upper


@given(st.floats(min_value=0.01, max_value=60.0))
def test_certify_monotone_in_volume(volume):
    word = ConwayWord((2, 2, 2))
    cert = certify_smc(word, volume)
    if cert.status == "certified":
        assert certify_smc(word, volume + 1.0).status == "certified"


@given(st.fractions(min_value="1/10", max_value="60"))
def test_threshold_algebra(volume_fraction):
    word = ConwayWord((2, 4, 2))  # m = 1
    volume = float(volume_fraction)
    if abs(volume - 2 * V_OCT) < 2 * DEFAULT_EPSILON:
        return  # stay off the epsilon band
    certificate = certify_smc(word, volume)
    in_window = 2 * V_OCT < volume <= 4 * V_OCT
    if in_window:
        assert certificate.status == "certified"
        assert smc_lower_bound_from_volume(volume) == 2 == certificate.upper_bound
    if certificate.status == "certified" and volume <= 4 * V_OCT:
        assert smc_lower_bound_from_volume(volume) == 2


@given(st.floats(allow_nan=True, allow_infinity=True))
@example(-math.inf)  # non-finite, and not positive either: the finiteness check must come first
def test_every_volume_boundary_rejects_non_finite(volume):
    word = ConwayWord((2, 2, 2))
    calls = (
        lambda: smc_lower_bound_from_volume(volume),
        lambda: certify_smc(word, volume),
        lambda: VolumeRecord("k", "C(2,2,2)", volume, "t"),
        lambda: ingest_volume_table(f"k,C(2,2,2),{volume!r}\n", source="t"),
    )
    for call in calls:
        if not math.isfinite(volume):
            with pytest.raises(NonFiniteVolumeError):
                call()
        elif volume <= 0:
            with pytest.raises((NonPositiveVolumeError, TableParseError)):
                call()
        else:
            call()


# --- volume tables ------------------------------------------------------------

TABLE = """\
# label, reference, volume
whitehead,C(2,-2,2)-like,3.663862
fig8,C(1,2,-2),2.029883
big,C(2,2,2),14.0
"""


def test_ingest_volume_table():
    records = ingest_volume_table(TABLE, source="unit-test")
    assert len(records) == 3
    assert records[0].label == "whitehead"
    assert records[0].reference == "C(2,-2,2)-like"  # commas inside survive
    assert records[0].volume == pytest.approx(3.663862)
    assert all(r.source == "unit-test" for r in records)


def test_ingest_rejects_malformed_line():
    with pytest.raises(TableParseError) as err:
        ingest_volume_table("goodlabel\n", source="t")
    assert err.value.line_number == 1


def test_ingest_rejects_an_empty_label():
    with pytest.raises(TableParseError, match="empty label") as err:
        ingest_volume_table("a,b,1.0\n  ,C(2,2,2),14.0\n", source="t")
    assert err.value.line_number == 2


def test_ingest_reports_line_numbers():
    with pytest.raises(TableParseError) as err:
        ingest_volume_table("a,b,1.0\nc,d,zebra\n", source="t")
    assert err.value.line_number == 2


@pytest.mark.parametrize("volume", ["\uff11\uff12.\uff15", "\u0661\u0662.5"])
def test_ingest_reads_only_ascii_digits_in_a_volume(volume):
    # fullwidth and Arabic-Indic digits pass float(), as parse_conway refuses them in a word
    with pytest.raises(TableParseError, match="bad volume") as err:
        ingest_volume_table(f"a,C(2,2,2),1.0\nb,C(3,2,3),{volume}\n", source="t")
    assert err.value.line_number == 2


def test_ingest_rejects_duplicate_labels():
    with pytest.raises(DuplicateLabelError):
        ingest_volume_table("a,b,1.0\na,c,2.0\n", source="t")


def test_ingest_rejects_nonpositive_volume():
    with pytest.raises(TableParseError):
        ingest_volume_table("a,b,-3.0\n", source="t")


def test_ingest_requires_source():
    with pytest.raises(ValueError):
        ingest_volume_table(TABLE, source="")
    with pytest.raises(ValueError, match="nonempty source"):
        ingest_volume_table("", "")  # no row would carry the source


def test_ingest_rejects_a_line_with_one_comma():
    with pytest.raises(TableParseError, match="expected label,reference,volume"):
        ingest_volume_table("a,1.5\n", "s")


def test_bounds_and_records_reject_impossible_fields():
    with pytest.raises(ValueError, match="non-negative"):
        ComplexityBounds(m=1, smc_upper=-2, f3_weighted_sum=2)
    with pytest.raises(ValueError, match="nonempty source"):
        VolumeRecord(label="big", reference="C(2,2,2)", volume=14.0, source="")


def test_census_rejects_a_negative_count():
    with pytest.raises(ValueError, match="non-negative"):
        SingularFiberCensus(ii2=2, ii3=0, definite_components=-1, indefinite_circles=1)
