"""Closed-form expectations the benchmark checks outputs against.

Everything here is the benchmark's own arithmetic; nothing is imported
from ``twobridge``.  The fraction comes from a left-to-right product of
2x2 continued-fraction matrices, so it does not share code or even
evaluation order with ``twobridge.conway``.
"""

from __future__ import annotations

import json
import math

# Volume of the regular ideal hyperbolic octahedron (4 x Catalan's constant).
V_OCT = 3.663862376708876
EPSILON = 1e-9


def fraction(entries: tuple[int, ...]) -> tuple[int, int]:
    """Normalized (p, q), 0 < q < p, of cont(c1, ..., cn) = c1 + 1/cont(c2, ...)."""
    # [[c, 1], [1, 0]] products: the first column holds numerator/denominator.
    a, b, c, d = 1, 0, 0, 1
    for e in entries:
        a, b, c, d = a * e + b, a, c * e + d, c
    p, q = a, c
    if p < 0:
        p, q = -p, -q
    return p, q % p


def text(entries) -> str:
    return "C(" + ",".join(str(e) for e in entries) + ")"


def m_of(entries) -> int:
    return (len(entries) - 1) // 2


def b_entries(entries) -> tuple[int, ...]:
    return tuple(entries[1::2])


def crossings(entries) -> int:
    return sum(abs(e) for e in entries)


def components(p: int) -> int:
    return 2 if p % 2 == 0 else 1


def expected_census(entries, variant: str) -> tuple[int, int]:
    """(II2, II3): 2m for f2, sum|b|/2 for f3."""
    if variant == "f2":
        return 2 * m_of(entries), 0
    return 0, sum(abs(b) for b in b_entries(entries)) // 2


def expected_strip_kinds(entries, variant: str, granularity: str) -> tuple[int, int]:
    """(number of strips, number of Type 2 strips) of a decomposition.

    Every horizontal crossing is smoothed into a Type 3 mark (one strip
    per crossing, or one per region at ``region`` granularity); Type 2
    strips hold a whole vertical region (f2) or one tangency (f3);
    ``fine`` adds an empty filler after every interior strip.
    """
    type2 = m_of(entries) if variant == "f2" else expected_census(entries, variant)[1]
    a = entries[0::2]
    type3 = len(a) if granularity == "region" else sum(abs(x) for x in a)
    interior = type2 + type3
    if granularity == "fine":
        interior *= 2
    return interior + 2, type2


def certificate_status(entries, volume: float) -> str:
    m = m_of(entries)
    if m == 0:
        return "inapplicable"
    return "certified" if volume > (4 * m - 2) * V_OCT + EPSILON else "inconclusive"


def volume_near_threshold(rng, entries) -> float:
    """A volume just above or just below (4m - 2) V_oct, chosen by ``rng``."""
    threshold = (4 * m_of(entries) - 2) * V_OCT
    delta = rng.uniform(0.05, 1.0)
    return threshold + delta if rng.random() < 0.5 else threshold - delta


def equivalent(p1: int, q1: int, p2: int, q2: int) -> bool:
    """Schubert equivalence with mirrors off: same p and q2 in {q1, q1^-1}."""
    return p1 == p2 and q2 % p1 in {q1 % p1, pow(q1, -1, p1)}


def parse_entries(word_text: str) -> tuple[int, ...]:
    body = word_text.strip()
    if not (body.startswith("C(") and body.endswith(")")):
        raise ValueError(f"not a canonical word: {word_text!r}")
    return tuple(int(x) for x in body[2:-1].split(","))


def check_document(doc_text: str, entries, variant: str, granularity: str) -> str | None:
    """Compare a model document with the closed forms; None when it agrees."""
    doc = json.loads(doc_text)
    p, q = fraction(entries)
    ii2, ii3 = expected_census(entries, variant)
    census = doc["census"]
    expected = {
        "conway": text(entries),
        "variant": variant,
        "granularity": granularity,
        "fraction": {"p": p, "q": q},
        "census": {
            "ii2": ii2,
            "ii3": ii3,
            "definite_components": components(p),
            "indefinite_circles": 1,
        },
        "bounds": {"smc_upper": 2 * m_of(entries), "weighted_sum": ii2 + 2 * ii3},
    }
    for key, value in expected.items():
        if doc[key] != value:
            return f"{key}: expected {value!r}, document has {doc[key]!r}"
    n_strips, n_type2 = expected_strip_kinds(entries, variant, granularity)
    kinds = [s["type"] for s in doc["strips"]]
    if len(kinds) != n_strips or kinds.count("type2") != n_type2 or len(doc["blocks"]) != n_strips:
        return (
            f"strips: expected {n_strips} with {n_type2} of type2, document has "
            f"{len(kinds)} with {kinds.count('type2')} ({len(doc['blocks'])} blocks)"
        )
    if census["ii2"] + census["ii3"] != sum(len(b["events"]) for b in doc["blocks"]):
        return "census disagrees with the block event logs"
    return None


def check_normalize_text(output: str, p: int, q: int) -> str | None:
    """An ``A -> B`` line whose B is odd-length, all-even-b and equivalent
    to p/q with mirrors off."""
    _, sep, right = output.strip().partition(" -> ")
    if not sep:
        return f"no witness in {output.strip()!r}"
    witness = parse_entries(right)
    if len(witness) % 2 != 1 or any(b % 2 for b in b_entries(witness)):
        return f"witness {right} is not an odd-length all-even-b word"
    if not equivalent(p, q, *fraction(witness)):
        return f"witness {right} is not equivalent to {p}/{q}"
    return None


def lower_bound(volume: float) -> int:
    return math.ceil(volume / (2 * V_OCT))
