"""Stable map complexity bounds and smc = 2m certificates.

The complexity of a compact 3-manifold (boundary tori allowed) is the
minimum over stable maps to the plane of |II2(f)| + 2|II3(f)|.  Three
facts drive everything here:

  (1)  vol(M) <= 2 * V_oct * smc(M)          for hyperbolic interiors,
  (2)  smc(E(L)) <= 2m                       from the f2 model,
  (3)  vol(S^3 - L) < 2 (tw(D) - 1) * V_oct  for reduced alternating
                                             diagrams, with tw(D) = 2m+1.

Given a volume above (4m-2) * V_oct, (1) forces smc > 2m - 1 while (2)
caps it at 2m, so smc = 2m exactly.  Volumes are always supplied by the
caller or a census table; nothing here computes one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .conway import ConwayWord, all_b_even, twist_number
from .errors import (
    DuplicateLabelError,
    EvenBRequiredError,
    NonFiniteVolumeError,
    NonPositiveVolumeError,
    TableParseError,
    TorusCaseError,
    _quoted,
)

# Volume of the hyperbolic ideal regular octahedron (= 4 * Catalan's
# constant); the test suite re-derives it from the Lobachevsky function
# and checks the 4 leading digits 3.6638.
V_OCT = 3.663862376708876

DEFAULT_EPSILON = 1e-9


@dataclass(frozen=True)
class ComplexityBounds:
    """Upper bound 2m, witnessed by the f2 model, plus the f3 weighted
    sum for comparison."""

    m: int
    smc_upper: int
    f3_weighted_sum: int

    def __post_init__(self):
        if min(self.m, self.smc_upper, self.f3_weighted_sum) < 0:
            raise ValueError("bounds must be non-negative")


@dataclass(frozen=True)
class VolumeRecord:
    label: str
    reference: str
    volume: float
    source: str

    def __post_init__(self):
        _require_finite(self.volume)
        if self.volume <= 0:
            raise NonPositiveVolumeError(f"volume {self.volume} for {self.label!r}")
        if not self.source:
            raise ValueError("volume records need a nonempty source")


@dataclass(frozen=True)
class Certificate:
    """Outcome of the inequality chain, with every instantiated bound.

    ``volume_inconsistent`` flags a supplied volume exceeding the
    4m * V_oct cap (the input contradicts the upper bound); the status
    itself stays monotone in the volume.
    """

    status: str  # 'certified' | 'inconclusive' | 'inapplicable'
    word: ConwayWord
    m: int
    volume: float
    epsilon: float
    smc_value: int | None
    threshold: float
    volume_cap: float
    lower_bound: int
    upper_bound: int | None
    volume_inconsistent: bool
    chain: tuple[str, ...]


def _require_finite(volume: float) -> None:
    """NaN compares false with everything, so it must go before any bound."""
    if not math.isfinite(volume):
        raise NonFiniteVolumeError(f"volume must be finite, got {volume}")


def weighted_sum(census: SingularFiberCensus) -> int:
    """The complexity weight of one model: |II2| + 2 |II3|.  The census
    class is ``morse.SingularFiberCensus``, named here but not imported,
    so that certifying a word does not load the model code."""
    return census.ii2 + 2 * census.ii3


def smc_upper_bound(word: ConwayWord) -> ComplexityBounds:
    """smc(E(L)) <= 2m, witnessed by the f2 model; the f3 model's weight
    (the total vertical crossing count) is reported for comparison."""
    if not all_b_even(word):
        raise EvenBRequiredError(f"{_quoted(str(word), str)} has an odd vertical twist count")
    sum_b = sum(map(abs, word.b_entries))
    return ComplexityBounds(m=word.m, smc_upper=2 * word.m, f3_weighted_sum=sum_b)


def smc_lower_bound_from_volume(volume: float) -> int:
    """ceil(vol / (2 V_oct)): the smallest complexity a hyperbolic volume allows."""
    _require_finite(volume)
    if volume <= 0:
        raise NonPositiveVolumeError(f"volume must be positive, got {volume}")
    return math.ceil(volume / (2 * V_OCT))


def volume_upper_bound(word: ConwayWord) -> float:
    """2 (tw(D) - 1) V_oct = 4m V_oct for reduced alternating words, m >= 1."""
    tw = twist_number(word)
    if word.m == 0:
        raise TorusCaseError("m = 0 words present torus links; no volume bound")
    return 2 * (tw - 1) * V_OCT


def certify_smc(
    word: ConwayWord, volume: float, epsilon: float = DEFAULT_EPSILON
) -> Certificate:
    """Certify smc(E(L)) = 2m when the supplied volume clears (4m-2) V_oct.

    Comparisons within a finite, non-negative ``epsilon`` of the threshold
    stay inconclusive; floating-point noise never certifies.  m = 0 words
    are inapplicable (the upper bound has no content).
    """
    if not math.isfinite(epsilon) or epsilon < 0:
        raise ValueError(f"epsilon must be finite and non-negative, got {epsilon}")
    lower = smc_lower_bound_from_volume(volume)
    if not all_b_even(word):
        raise EvenBRequiredError(f"{_quoted(str(word), str)} has an odd vertical twist count")
    m = word.m
    if m == 0:
        status, value, upper, inconsistent = "inapplicable", None, None, False
        threshold = cap = 0.0
        chain = ["m = 0: single twist region, torus link; the 2m upper bound is vacuous"]
    else:
        threshold = (4 * m - 2) * V_OCT
        cap = 4 * m * V_OCT
        upper = 2 * m
        inconsistent = lower > upper
        chain = [
            f"smc(E(L)) <= 2m = {upper}  [weighted sum of the f2 model]",
            f"smc(E(L)) >= ceil(vol / (2 V_oct)) = ceil({volume!r} / {2 * V_OCT!r}) = {lower}",
        ]
        if volume > threshold + epsilon:
            chain.append(
                f"vol = {volume!r} > (4m-2) V_oct + eps = {threshold!r} + {epsilon!r}"
            )
            chain.append(f"hence smc(E(L)) > 2m - 1 = {upper - 1}, so smc(E(L)) = {upper}")
            status, value = "certified", upper
        else:
            chain.append(
                f"vol = {volume!r} <= (4m-2) V_oct + eps = {threshold!r} + {epsilon!r}"
            )
            chain.append("the volume does not separate smc from 2m - 1; inconclusive")
            status, value = "inconclusive", None
        if inconsistent:
            chain.append(
                f"warning: lower bound {lower} exceeds 2m = {upper}; "
                f"the supplied volume is above the 4m V_oct cap {cap!r} (bad input?)"
            )
    return Certificate(
        status=status,
        word=word,
        m=m,
        volume=volume,
        epsilon=epsilon,
        smc_value=value,
        threshold=threshold,
        volume_cap=cap,
        lower_bound=lower,
        upper_bound=upper,
        volume_inconsistent=inconsistent,
        chain=tuple(chain),
    )


def ingest_volume_table(text: str, source: str) -> tuple[VolumeRecord, ...]:
    """Parse ``label,reference,volume`` lines ('#' comments allowed).

    The reference field may itself contain commas (Conway notation), so
    the label is everything before the first comma and the volume
    everything after the last.
    """
    if not source:
        raise ValueError("a nonempty source is required for provenance")
    records: list[VolumeRecord] = []
    labels: set[str] = set()
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        first = line.find(",")
        last = line.rfind(",")
        if first == -1 or first == last:
            raise TableParseError(line_number, f"expected label,reference,volume: {raw!r}")
        label = line[:first].strip()
        reference = line[first + 1 : last].strip()
        volume_text = line[last + 1 :].strip()
        if not label:
            raise TableParseError(line_number, "empty label")
        try:
            if not volume_text.isascii():  # float() reads any Unicode decimal digit
                raise ValueError
            volume = float(volume_text)
        except ValueError:
            raise TableParseError(line_number, f"bad volume {volume_text!r}") from None
        if not math.isfinite(volume):
            raise NonFiniteVolumeError(f"line {line_number}: volume must be finite: {volume}")
        if volume <= 0:
            raise TableParseError(line_number, f"volume must be positive: {volume}")
        if label in labels:
            raise DuplicateLabelError(f"duplicate label {label!r} at line {line_number}")
        labels.add(label)
        records.append(
            VolumeRecord(label=label, reference=reference, volume=volume, source=source)
        )
    return tuple(records)
