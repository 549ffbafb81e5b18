"""Conway notation, continued fractions, and Schubert classification
for two-bridge links.

A Conway word is an odd-length tuple of nonzero integers
(a1, b1, a2, ..., bm, a(m+1)); odd positions hold horizontal twist
counts a_i, even positions vertical twist counts b_j.  The word
evaluates by a plain right-to-left continued fraction

    cont(c1, ..., cn) = c1 + 1/cont(c2, ..., cn)

to a fraction p/q classifying the link up to Schubert equivalence.
The convention is pinned by an independent oracle: p equals the
checkerboard (Goeritz) determinant of the plat diagram built from the
same word, and the test suite enforces that identity on an exhaustive
corpus.

All arithmetic in this module is exact integer arithmetic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush
from math import gcd

from .errors import (
    ConwaySyntaxError,
    DegenerateFractionError,
    EvenLengthError,
    NotReducedAlternatingError,
    WordTooLargeError,
    ZeroEntryError,
    _quoted,
)

DEFAULT_SUM_BOUND = 40

# The most crossings a word may have where the output holds one entry per
# crossing: the CLI's build and render, and import_json, whose document
# does.  A model holds one run per twist region at every granularity,
# so assembly, the census and the certificate take a word of any size.
MAX_CROSSINGS = 1_000_000


@dataclass(frozen=True)
class ConwayWord:
    """Odd-length sequence of nonzero twist counts."""

    entries: tuple[int, ...]

    def __post_init__(self):
        entries = tuple(map(int, self.entries))
        object.__setattr__(self, "entries", entries)
        if 0 in entries:
            raise ZeroEntryError(f"zero entry in {_quoted(str(entries), str)}")
        if len(entries) % 2 == 0:
            raise EvenLengthError(
                f"{len(entries)} entries; Conway forms have odd length 2m+1"
            )

    @property
    def m(self) -> int:
        return (len(self.entries) - 1) // 2

    @property
    def a_entries(self) -> tuple[int, ...]:
        return self.entries[0::2]

    @property
    def b_entries(self) -> tuple[int, ...]:
        return self.entries[1::2]

    @property
    def sum_abs(self) -> int:
        return sum(map(abs, self.entries))

    def __str__(self) -> str:
        return format_conway(self)


@dataclass(frozen=True)
class SchubertFraction:
    """Normalized classifying fraction: 0 < q < p, gcd(p, q) = 1.

    ``q_inverse``, the multiplicative inverse of q mod p, is computed
    when first read: only comparing two fractions needs it.
    """

    p: int
    q: int

    def __post_init__(self):
        if self.p < 2:
            raise DegenerateFractionError(f"p = {self.p} < 2")
        if gcd(self.p, self.q) != 1:
            raise DegenerateFractionError(f"gcd({self.p}, {self.q}) != 1")
        if not 0 < self.q < self.p:
            raise DegenerateFractionError(f"q = {self.q} outside (0, {self.p})")

    @cached_property
    def q_inverse(self) -> int:
        return pow(self.q, -1, self.p)

    @classmethod
    def normalized(cls, p: int, q: int) -> "SchubertFraction":
        """Reduce (p, q) with p possibly negative, q arbitrary, to canonical form."""
        if p < 0:
            p, q = -p, -q
        if p < 2:
            raise DegenerateFractionError(f"|p| = {p} < 2: not a two-bridge fraction")
        return cls(p, q % p)

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"


@dataclass(frozen=True)
class FailureReport:
    """No even-b form found within a sum bound; never a claim of nonexistence."""

    word: ConwayWord
    fraction: SchubertFraction
    sum_bound: int
    note: str


# An entry: ASCII digits only, as str.isdigit and int() take any Unicode digit.
_INTEGER = re.compile(r"-?[0-9]+")
_INTEGERS = re.compile(r"-?[0-9]+(?:,-?[0-9]+)*")


def parse_conway(text: str) -> ConwayWord:
    """Parse ``C(e1,e2,...)`` or ``[e1,e2,...]`` notation, whitespace-insensitive."""
    compact = "".join(text.split())
    if compact.startswith("C(") and compact.endswith(")"):
        body = compact[2:-1]
    elif compact.startswith("[") and compact.endswith("]"):
        body = compact[1:-1]
    else:
        raise ConwaySyntaxError(f"not Conway notation: {_quoted(text)}")
    if not body:
        raise ConwaySyntaxError(f"empty entry list: {_quoted(text)}")
    tokens = body.split(",")
    try:
        entries = tuple(map(int, tokens)) if _INTEGERS.fullmatch(body) else None
    except ValueError:  # too many digits
        entries = None
    if entries is None:
        bad = next(token for token in tokens if not _INTEGER.fullmatch(token) or not _readable(token))
        raise ConwaySyntaxError(f"bad integer {_quoted(bad)} in {_quoted(text)}")
    return ConwayWord(entries)


def _readable(token: str) -> bool:
    """Whether ``int()`` reads ``token``, which it refuses past its digit limit."""
    try:
        int(token)
    except ValueError:
        return False
    return True


def _require_size(word: ConwayWord) -> ConwayWord:
    """``word``, if it has at most ``MAX_CROSSINGS`` crossings."""
    if word.sum_abs > MAX_CROSSINGS:
        raise WordTooLargeError(
            f"{word.sum_abs} crossings, more than the limit of {MAX_CROSSINGS}"
        )
    return word


def format_conway(word: ConwayWord) -> str:
    """Canonical text form: ``C(e1,e2,...)`` with no spaces."""
    return "C(" + ",".join(map(str, word.entries)) + ")"


def _continuant(entries: tuple[int, ...]) -> tuple[int, int]:
    """Projective right-to-left continued fraction; no divisions, exact.

    Returns coprime (P, Q) with cont(entries) = P/Q (Q may be 0 when the
    value is formally infinite; that only happens with |P| = 1).
    """
    num, den = entries[-1], 1
    for c in reversed(entries[:-1]):
        num, den = c * num + den, num
    return num, den


def fraction_of(word: ConwayWord) -> SchubertFraction:
    """Evaluate the word's continued fraction and normalize to 0 < q < p."""
    p, q = _continuant(word.entries)
    return SchubertFraction.normalized(p, q)


def schubert_equivalent(f1: SchubertFraction, f2: SchubertFraction, *, allow_mirror: bool) -> bool:
    """True iff p1 = p2 and q2 is q1 or its inverse mod p (plus negations
    of both when ``allow_mirror``).  The flag is keyword-only and has no
    default, so every query states whether b(p,q) and b(p,p-q) are
    identified."""
    if f1.p != f2.p:
        return False
    p = f1.p
    images = {f1.q, f1.q_inverse}
    if allow_mirror:
        images |= {(p - f1.q) % p, (p - f1.q_inverse) % p}
    return f2.q in images


def component_count(f: SchubertFraction) -> int:
    """2 components iff p is even, else 1; agrees with plat strand tracing."""
    return 2 if f.p % 2 == 0 else 1


def all_b_even(word: ConwayWord) -> bool:
    """Every vertical twist count is even (vacuously true when m = 0):
    no b has its low bit set, which holds of negative ints too, at C speed."""
    return not any(map((1).__and__, word.entries[1::2]))


def is_reduced_alternating(word: ConwayWord) -> bool:
    """The plat diagram is reduced alternating iff all entries >= 2 or all <= -2."""
    return all(e >= 2 for e in word.entries) or all(e <= -2 for e in word.entries)


def twist_number(word: ConwayWord) -> int:
    """Number of crossing equivalence classes of the reduced alternating
    diagram: 2m + 1, the number of twist regions."""
    if not is_reduced_alternating(word):
        raise NotReducedAlternatingError(
            f"{_quoted(format_conway(word), str)} has an entry of magnitude 1 or mixed signs"
        )
    return len(word.entries)


def transform(word: ConwayWord, kind: str) -> ConwayWord:
    """``mirror`` negates every entry, ``reverse`` reverses the sequence."""
    if kind == "mirror":
        return ConwayWord(tuple(-e for e in word.entries))
    if kind == "reverse":
        return ConwayWord(tuple(reversed(word.entries)))
    raise ValueError(f"unknown transform {kind!r}")


def _least_even_b_word(f: SchubertFraction, sum_bound: int) -> tuple[int, ...] | None:
    """The least even-b word, by (length, sum of magnitudes, entries), of
    magnitude sum at most ``sum_bound`` that expands p/y for y one of q,
    q - p, q^{-1} and q^{-1} - p, so lies in ``f``'s mirror-free class.

    A state (X, Y, slot) is the value X/Y still to expand.  An a-slot takes
    the floor or the ceiling of X/Y, a b-slot an even c with
    |X - cY| <= |Y|, and the next state is (Y, X - cY); a word ends at an
    a-slot with |Y| = 1.  So |Y| falls at every step but a b-slot's at
    |Y| = 1, after which the word ends, and the states are taken in order
    of decreasing |Y|: a state with |Y| > 1 has every prefix reaching it
    when it is taken, and keeps those that no shorter or equally long
    prefix matches in magnitude sum.
    """
    frontier: dict[tuple[int, int, int], list] = {}
    order: list[tuple[int, int, int]] = []  # a heap of the frontier's states, largest |Y| first
    words = []

    def reach(x: int, y: int, entries: tuple[int, ...], total: int) -> None:
        if y < 0:
            x, y = -x, -y
        state = (-y, x, len(entries) % 2)
        if state not in frontier:
            frontier[state] = []
            heappush(order, state)
        frontier[state].append((len(entries), total, entries))

    for y in {f.q, f.q - f.p, f.q_inverse, f.q_inverse - f.p}:
        reach(f.p, y, (), 0)
    while order:
        state = heappop(order)
        y, x, b_slot = -state[0], state[1], state[2]
        lo = x // y
        choices = (lo, lo + 1) if y > 1 else (lo - 1, lo + 1) if b_slot else (lo,)
        lightest = sum_bound + 1
        for _, total, entries in sorted(frontier.pop(state)):
            if total >= lightest:
                continue
            lightest = total
            for c in choices:
                if b_slot and c % 2 or total + abs(c) > sum_bound:
                    continue
                if rest := x - c * y:
                    reach(y, rest, entries + (c,), total + abs(c))
                else:
                    words.append(entries + (c,))
    return min(words, key=lambda w: (len(w), sum(map(abs, w)), w), default=None)


def even_b_normalize(word: ConwayWord, sum_bound: int = DEFAULT_SUM_BOUND) -> ConwayWord | FailureReport:
    """An odd-length all-even-b word Schubert-equivalent (mirror off) to
    ``word``: the input unchanged when it already qualifies, else the
    least one ``_least_even_b_word`` builds within ``sum_bound``.  A
    FailureReport records the bound; it never claims nonexistence.
    """
    f = fraction_of(word)
    if all_b_even(word):
        return word
    if entries := _least_even_b_word(f, sum_bound):
        return ConwayWord(entries)
    return FailureReport(
        word=word,
        fraction=f,
        sum_bound=sum_bound,
        note=(
            "no even-b word found by integer continued-fraction expansion "
            f"within sum {sum_bound}; existence is not excluded"
        ),
    )
