"""Seeded input generators.  The same seed always gives the same inputs.

Each generator draws from its own ``random.Random`` stream, named after
the seed and the input kind, so adding a kind never changes another.
The library only ever sees the generated words, tables and files.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from oracle import (
    crossings,
    fraction,
    m_of,
    text,
    volume_near_threshold,
)

# The acceptance corpus seed; ``corpus_entries(DEFAULT_SEED)`` equals
# ``tests/oracles.random_even_b_words(20250808, 200)`` (see check_corpus.py).
DEFAULT_SEED = 20250808
# Never used while the benchmark or a change was tuned; kept for claims.
HELD_OUT_SEED = 20261017


@dataclass(frozen=True)
class Word:
    text: str
    entries: tuple[int, ...]
    volume: float

    @property
    def crossings(self) -> int:
        return crossings(self.entries)


def _stream(seed: int, kind: str) -> random.Random:
    return random.Random(f"{seed}:{kind}")


def _corpus_style(rng: random.Random, m_min=1, m_max=6, mag_min=2, mag_max=10) -> tuple[int, ...]:
    """Odd-length word, |a| in [mag_min, mag_max], |b| even in the same range."""
    m = rng.randint(m_min, m_max)
    entries = []
    for position in range(2 * m + 1):
        sign = rng.choice((1, -1))
        if position % 2 == 0:
            magnitude = rng.randint(mag_min, mag_max)
        else:
            magnitude = 2 * rng.randint(max(1, mag_min // 2), mag_max // 2)
        entries.append(sign * magnitude)
    return tuple(entries)


def corpus_entries(seed: int, count: int = 200) -> list[tuple[int, ...]]:
    """The acceptance-corpus generator: one ``random.Random(seed)`` stream."""
    rng = random.Random(seed)
    return [_corpus_style(rng) for _ in range(count)]


def corpus(seed: int, count: int = 200) -> list[Word]:
    rng = _stream(seed, "corpus-volumes")
    return [Word(text(e), e, volume_near_threshold(rng, e)) for e in corpus_entries(seed, count)]


LADDER_K = (100, 1_000, 10_000)
LADDER_M = (100, 300, 1_000)


def ladder(seed: int) -> list[Word]:
    """C(k,2,k) and C(3,2k,3) for each k, alternating C(3,2,...,3) for each m,
    smallest first.

    The seed picks each word's chirality (mirror images stay reduced
    alternating and even-b) and its volume.  The order stays fixed:
    peak memory and the heap each rung starts from depend on it.
    """
    rng = _stream(seed, "ladder")
    shapes = [(k, 2, k) for k in LADDER_K] + [(3, 2 * k, 3) for k in LADDER_K]
    shapes += [(3, 2) * m + (3,) for m in LADDER_M]
    words = []
    for shape in shapes:
        sign = rng.choice((1, -1))
        entries = tuple(sign * e for e in shape)
        words.append(Word(text(entries), entries, volume_near_threshold(rng, entries)))
    return sorted(words, key=lambda w: w.crossings)


def largest_ladder_text(words: list[Word]) -> str:
    k = LADDER_K[-1]
    return next(w.text for w in words if abs(w.entries[0]) == k and len(w.entries) == 3)


@dataclass(frozen=True)
class BatchLine:
    text: str
    expected_exit: int
    entries: tuple[int, ...] | None  # None for malformed lines


def build_lines(seed: int, count: int = 200) -> list[BatchLine]:
    """Distinct corpus-style lines: 5% with an odd b (exit 2), 2% malformed
    (exit 1), the rest valid (exit 0)."""
    rng = _stream(seed, "build")
    n_odd = round(0.05 * count)
    n_bad = round(0.02 * count)
    seen: set[str] = set()
    lines: list[BatchLine] = []

    def add(line: BatchLine) -> None:
        if line.text not in seen:
            seen.add(line.text)
            lines.append(line)

    while len(lines) < count - n_odd - n_bad:
        entries = _corpus_style(rng)
        add(BatchLine(text(entries), 0, entries))
    while len(lines) < count - n_bad:
        entries = list(_corpus_style(rng))
        j = 2 * rng.randrange(m_of(entries)) + 1
        entries[j] += rng.choice((1, -1))
        add(BatchLine(text(entries), 2, tuple(entries)))
    malformed = (
        lambda e: text(e[:-1]),  # even length
        lambda e: text((0,) + e[1:]),  # zero entry
        lambda e: text(e)[:-1],  # unclosed
        lambda e: text(e).replace(",", ",,", 1),  # empty token
        lambda e: text(e).replace("C(", "C(x", 1),  # bad integer
    )
    while len(lines) < count:
        entries = _corpus_style(rng)
        add(BatchLine(rng.choice(malformed)(entries), 1, None))
    rng.shuffle(lines)
    return lines


def table_csv(table: list[Word]) -> str:
    lines = ["# label,reference,volume"]
    lines += [f"K{i:03d},{w.text},{w.volume!r}" for i, w in enumerate(table)]
    return "\n".join(lines) + "\n"


def _expansions(num: int, den: int):
    """Every continued fraction of num/den that rounds each partial
    quotient down or up (so entries may be negative); exact and finite."""
    if num % den == 0:
        yield [num // den]
        return
    low = num // den
    for a in (low, low + 1):
        if a == 0:
            continue
        for rest in _expansions(den, num - a * den):
            yield [a] + rest


def _odd_length(entries: list[int]) -> tuple[int, ...]:
    if len(entries) % 2 == 0:
        x = entries[-1]
        entries = entries[:-1] + ([x - 1, 1] if x != 1 else [x + 1, -1])
    return tuple(entries)


def odd_b_word(p: int, q: int, tries: int = 256) -> tuple[int, ...]:
    """The shortest odd-length word for p/q with an odd b entry among the
    first ``tries`` rounded expansions of p/x for x = q, q^-1, q - p and
    q^-1 - p (falling back to the plain continued fraction when none has
    one)."""
    found = []
    inverse = pow(q, -1, p)
    for x in (q, inverse, q - p, inverse - p):
        for count, entries in enumerate(_expansions(p, x)):
            if count == tries:
                break
            word = _odd_length(entries)
            if any(b % 2 for b in word[1::2]):
                found.append(word)
    if not found:
        found = [_odd_length(next(_expansions(p, q)))]
    return min(found, key=lambda w: (len(w), sum(abs(e) for e in w), w))


@dataclass(frozen=True)
class NormalizeItem:
    text: str
    p: int
    q: int


def normalize_items(seed: int, p_max: int = 40) -> list[NormalizeItem]:
    """An odd-b word for every 2-component fraction with p <= p_max, in a
    seeded order (2/1 has none, so ``C(2)`` stands in).  Each has an even-b
    form within the default search bounds of ``even_b_normalize``."""
    items = []
    for p in range(2, p_max + 1, 2):
        for q in range(1, p):
            if math.gcd(p, q) == 1:
                entries = odd_b_word(p, q)
                items.append(NormalizeItem(text(entries), *fraction(entries)))
    _stream(seed, "normalize").shuffle(items)
    return items
