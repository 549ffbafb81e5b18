"""Independent oracles used by the test suite.

Nothing here reuses the library's arithmetic paths: the determinant
comes from checkerboard-coloring the plat diagram's complement (faces
traced from the planar rotation system) and an exact integer Bareiss
determinant; component counts come from tracing strand endpoints; the
definite-fold trace of a block sequence from walking an adjacency-list
graph; the octahedron volume from summing the Lobachevsky series; the
least even-b word from the bounded depth-first search over ``Fraction``
targets that the library's integer construction replaced; a Conway word
from a character-by-character scan of its text; a word's curves and
strip decompositions from the plat pipeline that the library's walk
over the twist regions replaced: crossings, outer smoothing, bigon
pairing and the slicing loop, with nothing taken from ``twobridge.curves``.
"""

from __future__ import annotations

import itertools
import random
import sys
from fractions import Fraction
from functools import lru_cache

A_STRANDS = (2, 3)
B_STRANDS = (1, 2)

_CW_NEXT = {"ne": "se", "se": "sw", "sw": "nw", "nw": "ne"}
_QUADRANT_AFTER = {"ne": "e", "se": "s", "sw": "w", "nw": "n"}


def _pattern_strand_sequence(pattern):
    """Strand pair for each crossing of an unsigned region-size pattern."""
    out = []
    for region, size in enumerate(pattern):
        strands = A_STRANDS if region % 2 == 0 else B_STRANDS
        out.extend([strands] * size)
    return out


def _plat_edges(strand_sequence):
    """Arcs of the capped 4-plat as port-to-port edges.

    Ports are (crossing index, corner).  Strand ends are swept left to
    right; the caps join (1,2) and (3,4) at both ends and are folded into
    the arcs they route.
    """
    open_end = {pos: ("L", pos) for pos in (1, 2, 3, 4)}
    segments = []
    for i, (s, t) in enumerate(strand_sequence):
        segments.append((open_end[s], (i, "nw")))
        segments.append((open_end[t], (i, "sw")))
        open_end[s] = (i, "ne")
        open_end[t] = (i, "se")
    for pos in (1, 2, 3, 4):
        segments.append((open_end[pos], ("R", pos)))

    # Stitch through the terminal cap pairings to get port-to-port arcs.
    link = {}
    for a, b in segments:
        link.setdefault(a, []).append(b)
        link.setdefault(b, []).append(a)
    for side in ("L", "R"):
        for a, b in ((1, 2), (3, 4)):
            link[(side, a)].append((side, b))
            link[(side, b)].append((side, a))

    edges = []
    seen = set()
    for start in sorted(k for k in link if isinstance(k[0], int)):
        if start in seen:
            continue
        path = [start]
        seen.add(start)
        prev = None
        here = start
        while True:
            nxt = [x for x in link[here] if x != prev]
            assert len(nxt) == 1, f"bad routing at {here}"
            prev, here = here, nxt[0]
            if isinstance(here[0], int):
                seen.add(here)
                break
            path.append(here)
        edges.append((start, here))
    return edges


class PlatFaceData:
    """Checkerboard face structure of one unsigned plat pattern.

    Precomputes, per crossing, which diagonal pair of quadrants is white
    and the two white faces it joins; ``determinant`` then only needs the
    braid exponent signs.
    """

    def __init__(self, pattern):
        strand_sequence = _pattern_strand_sequence(pattern)
        n_crossings = len(strand_sequence)
        edges = _plat_edges(strand_sequence)
        assert len(edges) == 2 * n_crossings

        other_end = {}
        for a, b in edges:
            other_end[a] = b
            other_end[b] = a

        face_of_quadrant = {}
        face_of_departure = {}
        visited = set()
        n_faces = 0
        for c in range(n_crossings):
            for corner in ("ne", "nw", "sw", "se"):
                start = (c, corner)
                if start in visited:
                    continue
                face_id = n_faces
                n_faces += 1
                arrival = start
                while arrival not in visited:
                    visited.add(arrival)
                    ci, ai = arrival
                    face_of_quadrant[(ci, _QUADRANT_AFTER[ai])] = face_id
                    departure = (ci, _CW_NEXT[ai])
                    face_of_departure[departure] = face_id
                    arrival = other_end[departure]
        assert n_faces == n_crossings + 2, f"Euler count failed: {n_faces}"

        adjacency = [set() for _ in range(n_faces)]
        for a, b in edges:
            fa, fb = face_of_departure[a], face_of_departure[b]
            adjacency[fa].add(fb)
            adjacency[fb].add(fa)
        color = [-1] * n_faces
        stack = [0]
        color[0] = 0
        while stack:
            f = stack.pop()
            for g in adjacency[f]:
                if color[g] == -1:
                    color[g] = 1 - color[f]
                    stack.append(g)
                else:
                    assert color[g] != color[f], "complement not checkerboard"

        white_faces = [f for f in range(n_faces) if color[f] == 1]
        index = {f: i for i, f in enumerate(white_faces)}
        per_crossing = []
        for c in range(n_crossings):
            qf = {q: face_of_quadrant[(c, q)] for q in "news"}
            assert color[qf["n"]] == color[qf["s"]] != color[qf["e"]] == color[qf["w"]]
            east_west_white = color[qf["e"]] == 1
            pair = ("e", "w") if east_west_white else ("n", "s")
            per_crossing.append(
                (east_west_white, index[qf[pair[0]]], index[qf[pair[1]]])
            )
        self.n_white = len(white_faces)
        self.per_crossing = per_crossing

    def determinant(self, braid_signs) -> int:
        size = self.n_white - 1
        if size <= 0:
            return 1
        matrix = [[0] * self.n_white for _ in range(self.n_white)]
        for (east_west_white, i, j), sign in zip(self.per_crossing, braid_signs):
            eta = sign if east_west_white else -sign
            if i != j:
                matrix[i][j] -= eta
                matrix[j][i] -= eta
                matrix[i][i] += eta
                matrix[j][j] += eta
        minor = [row[1:] for row in matrix[1:]]
        return abs(bareiss_determinant(minor))


@lru_cache(maxsize=None)
def _face_data(pattern) -> PlatFaceData:
    return PlatFaceData(pattern)


def bareiss_determinant(matrix) -> int:
    """Fraction-free exact determinant of an integer matrix."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [row[:] for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _braid_signs(entries):
    signs = []
    for region, entry in enumerate(entries):
        s = 1 if entry > 0 else -1
        if region % 2 == 1:
            s = -s
        signs.extend([s] * abs(entry))
    return signs


def goeritz_determinant_of_entries(entries) -> int:
    """|det| of the plat closure of a Conway entry tuple."""
    pattern = tuple(abs(e) for e in entries)
    return _face_data(pattern).determinant(_braid_signs(entries))


def plat_component_count_of_entries(entries) -> int:
    """Count link components by tracing strand endpoints through the braid."""
    perm = {1: 1, 2: 2, 3: 3, 4: 4}
    for region, entry in enumerate(entries):
        s, t = A_STRANDS if region % 2 == 0 else B_STRANDS
        if abs(entry) % 2 == 1:
            # position swap; handedness does not matter for tracing
            for key in perm:
                if perm[key] == s:
                    perm[key] = t
                elif perm[key] == t:
                    perm[key] = s
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        parent[find(a)] = find(b)

    for side in ("L", "R"):
        union((side, 1), (side, 2))
        union((side, 3), (side, 4))
    for pos in (1, 2, 3, 4):
        union(("L", pos), ("R", perm[pos]))
    return len({find(("L", pos)) for pos in (1, 2, 3, 4)})


# The plat pipeline, one run ``(item, count)`` per twist region: a
# crossing is (strands, braid sign, entry sign, outer adjacent), a column
# (kind, sign) and a strip (kind, column runs, param).  A strip sequence is
# runs of patterns, each pattern a tuple of strips laid down ``count``
# times: one strip, or at fine a strip and the empty filler.
_CAP_IN, _CAP_OUT, _FILLER = ("type1", (), 0), ("type4", (), 0), ("type3", (), 0)


def plat_crossing_runs(entries):
    """The crossings of the capped 4-plat of ``entries``: region a_i on
    the middle strands with braid sign sign(a_i), region b_j on the top
    strands with sign -sign(b_j)."""
    runs = []
    for region, entry in enumerate(entries):
        sign, outer = (1 if entry > 0 else -1), region % 2 == 0
        crossing = (A_STRANDS, sign, sign, True) if outer else (B_STRANDS, -sign, sign, False)
        runs.append((crossing, abs(entry)))
    return runs


def plat_curve_runs(entries, variant):
    """The columns of the ``variant`` curve of ``entries``: every
    outer-adjacent crossing smoothed to a pass, every other kept as a
    double point, and for f3 each region's double points paired into
    self-tangencies."""
    columns = [(("pass" if outer else "crossing", sign), count) for (_, _, sign, outer), count in plat_crossing_runs(entries)]
    if variant == "f2":
        return columns
    paired = []
    for (kind, sign), count in columns:
        if kind == "crossing":
            assert count % 2 == 0, "an odd region has a double point left unpaired"
            kind, count = "tangency", count // 2
        paired.append(((kind, sign), count))
    return paired


def plat_strip_runs(columns, granularity):
    """The strips around a curve with the column runs ``columns``, as
    ``strip_decompose`` sliced them: a whole vertical region in one Type 2
    strip, a Type 2 strip per tangency, and a Type 3 strip per pass
    column, or per horizontal region at ``region`` granularity; at
    ``fine`` the empty filler follows each interior strip."""
    interior = []
    for column, count in columns:
        kind, sign = column
        if kind == "crossing" or kind == "pass" and granularity == "region":
            interior.append((("type2" if kind == "crossing" else "type3", ((column, count),), sign * count), 1))
        else:
            interior.append((("type2" if kind == "tangency" else "type3", ((column, 1),), sign), count))
    tail = (_FILLER,) if granularity == "fine" else ()
    return [((_CAP_IN,), 1), *(((strip, *tail), count) for strip, count in interior), ((_CAP_OUT,), 1)]


def orbit_equivalent(p: int, q1: int, q2: int, allow_mirror: bool) -> bool:
    """Brute-force Schubert orbit: scan for the inverse instead of pow()."""
    inverse = next(x for x in range(1, p) if (x * q1) % p == 1)
    orbit = {q1 % p, inverse}
    if allow_mirror:
        orbit |= {(p - y) % p for y in set(orbit)}
    return (q2 % p) in orbit


def octahedron_volume_oracle(terms: int = 200000) -> float:
    """8 * Lobachevsky(pi/4) summed from the series (1/2) sum sin(n pi/2)/n^2.

    Only n = 1, 3, 5, ... contribute, with alternating signs; averaging
    the last two partial sums tightens the alternating-series error.
    """
    partial = 0.0
    previous = 0.0
    for k in range(terms):
        previous = partial
        partial += (-1) ** k / (2 * k + 1) ** 2
    catalan = (partial + previous) / 2
    return 8 * (catalan / 2)


def nearest_integer_expansion(p: int, q: int):
    """Odd-length nonzero continued fraction expansion of p/q (no parity
    constraint on the entries; used to seed normalization searches)."""
    entries = []
    t = Fraction(p, q)
    while True:
        c = round(t)
        if 2 * t == int(2 * t) and t.denominator == 2:  # half-integer tie
            c = int(t - Fraction(1, 2))
        if c == 0:
            c = 1 if t > 0 else -1
        entries.append(c)
        r = t - c
        if r == 0:
            break
        t = 1 / r
    if len(entries) % 2 == 0:
        c = entries.pop()
        s = 1 if c != 1 else -1
        if c == -1:
            s = 1
        entries.extend([c - s, s])
    assert all(e != 0 for e in entries) and len(entries) % 2 == 1
    return tuple(entries)


# The bounded depth-first search for even-b words, with its fixed length cap.
SEARCH_LENGTH_BOUND = 11


def _expansion_targets(f: SchubertFraction) -> list[Fraction]:
    """Rational targets whose words normalize into f's mirror-free class.

    cont(w) = X/Y lands on f exactly when |X| = p and sign(X)*Y is q or
    q^{-1} mod p, so we sweep small representatives Y of those residues.
    """
    p = f.p
    targets = []
    seen = set()
    for base in (f.q, f.q_inverse):
        for eps in (1, -1):
            for k in range(-2, 3):
                y = eps * base + k * p
                if y == 0 or abs(y) > 2 * p:
                    continue
                t = Fraction(eps * p, y)
                if t not in seen:
                    seen.add(t)
                    targets.append(t)
    targets.sort(key=lambda t: (abs(t.denominator), t < 0))
    return targets


def _expand_target(
    target: Fraction,
    length_bound: int,
    sum_bound: int,
    witnesses: list[tuple[int, ...]],
) -> None:
    """Depth-first expansion of ``target`` into words with even b-entries.

    Candidate entries stay within distance 2 of the running value; that
    window always contains the greedy nearest-integer (or nearest-even)
    choices on both sides.
    """

    def min_tail(position: int) -> int:
        # Cheapest legal completion: end now costs >= 1; if the next
        # position is a b-slot, at least one even entry plus a final a.
        return 1 if position % 2 == 1 else 3

    def rec(t: Fraction, position: int, prefix: list[int], used: int) -> None:
        a_slot = position % 2 == 1
        if a_slot and t.denominator == 1:
            c = int(t)
            if c != 0 and used + abs(c) <= sum_bound:
                witnesses.append(tuple(prefix + [c]))
        if position >= length_bound:
            return
        lo = int(t) - 2
        cands = [c for c in range(lo, lo + 6) if c != 0 and abs(Fraction(c) - t) <= 2]
        if not a_slot:
            cands = [c for c in cands if c % 2 == 0]
        cands.sort(key=lambda c: (abs(Fraction(c) - t), c))
        for c in cands:
            r = t - c
            if r == 0:
                continue
            nxt = used + abs(c)
            if nxt + min_tail(position + 1) > sum_bound:
                continue
            rec(1 / r, position + 1, prefix + [c], nxt)

    rec(target, 1, [], 0)


def even_b_witnesses(f: SchubertFraction, sum_bound: int) -> list[tuple[int, ...]]:
    """The even-b words expanding to ``f``'s targets, so in its mirror-free
    class (``_expansion_targets``), at the first odd length cap with any.

    This bounded search was the library's ``even_b_normalize`` until the
    integer construction replaced it; it stays as the reference for
    minimality."""
    targets = _expansion_targets(f)
    for length_cap in range(1, SEARCH_LENGTH_BOUND + 1, 2):
        witnesses: list[tuple[int, ...]] = []
        for target in targets:
            _expand_target(target, length_cap, sum_bound, witnesses)
        if witnesses:
            break
    return witnesses


@lru_cache(maxsize=None)
def least_even_b_witness(f, sum_bound: int) -> tuple[int, ...] | None:
    """The least of ``even_b_witnesses`` by (length, sum of magnitudes,
    entries), or None when the search finds none; kept per fraction and
    bound, since many words share a fraction."""
    return min(even_b_witnesses(f, sum_bound), key=lambda w: (len(w), sum(map(abs, w)), w), default=None)


def compositions(total: int, parts: int):
    """Ordered compositions of ``total`` into ``parts`` positive parts."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def all_entry_tuples(max_sum: int):
    """Every odd-length nonzero entry tuple with sum of magnitudes <= max_sum."""
    for s in range(1, max_sum + 1):
        for length in range(1, s + 1, 2):
            for pattern in compositions(s, length):
                for signs in itertools.product((1, -1), repeat=length):
                    yield tuple(c * sg for c, sg in zip(pattern, signs))


def random_even_b_words(seed: int, count: int, m_min=1, m_max=6, mag_min=2, mag_max=10):
    """Deterministic corpus of even-b Conway entry tuples."""
    rng = random.Random(seed)
    words = []
    while len(words) < count:
        m = rng.randint(m_min, m_max)
        entries = []
        for position in range(2 * m + 1):
            sign = rng.choice((1, -1))
            if position % 2 == 0:
                magnitude = rng.randint(mag_min, mag_max)
            else:
                magnitude = 2 * rng.randint(max(1, mag_min // 2), mag_max // 2)
            entries.append(sign * magnitude)
        words.append(tuple(entries))
    return words


def model_entries():
    """A hypothesis strategy of entry tuples to assemble: random even-b
    words, and alternating words ``(a, b, a, b, ..., a)`` whose strips
    and blocks come in many short runs."""
    from hypothesis import strategies as st

    sign = st.sampled_from((1, -1))
    a_entry = st.integers(1, 12)
    b_entry = st.integers(1, 6).map(lambda half: 2 * half)
    random_words = st.integers(0, 4).flatmap(
        lambda m: st.tuples(sign, st.lists(a_entry, min_size=m + 1, max_size=m + 1), st.lists(b_entry, min_size=m, max_size=m))
    ).map(lambda t: tuple(t[0] * e for pair in zip(t[1], t[2] + [0]) for e in pair if e))
    random_words = random_words.filter(lambda entries: entries not in ((1,), (-1,)))  # p = 1: no two-bridge link
    alternating = st.tuples(sign, st.integers(1, 3), st.integers(1, 2), st.integers(2, 60)).map(
        lambda t: tuple(t[0] * e for e in (t[1], 2 * t[2]) * t[3] + (t[1],))
    )
    return st.one_of(random_words, alternating)


# The layout of a model SVG, restated.
_SVG_MARGIN, _SVG_STRIP_W, _SVG_TOP, _SVG_BOT, _SVG_TREE_H, _SVG_TREE_W = 16, 36, 16, 112, 48, 16
_SVG_STRIP_STYLE = {
    "type1": ("strip strip-type1", "#e8e8e8"),
    "type2": ("strip strip-type2", "#ffd27f"),
    "type4": ("strip strip-type4", "#e8e8e8"),
}


def _svg_line(x1, y1, x2, y2, cls):
    return f'<line class="{cls}" x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="black" stroke-width="2"/>'


def oracle_model_svg(model) -> str:
    """The SVG of a model drawn strip by strip and block by block, one
    f-string per element: strip rects, the outline of E, a gamma line at
    every separator, the event dots of each block at its strip's middle,
    and the standard Reeb tree beneath every separator."""
    w, top, bot = _SVG_STRIP_W, _SVG_TOP, _SVG_BOT
    strips = list(model.strips.strips)
    n = len(strips)
    width = 2 * _SVG_MARGIN + n * w
    height = bot + _SVG_TREE_H + 3 * _SVG_MARGIN
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="0 0 {width} {height}" width="{width}" height="{height}">',
    ]
    for i, strip in enumerate(strips):
        cls, fill = _SVG_STRIP_STYLE.get(strip.kind, ("strip strip-type3", "white"))
        lines.append(
            f'<rect class="{cls}" x="{_SVG_MARGIN + i * w}" y="{top}" width="{w}" '
            f'height="{bot - top}" fill="{fill}" stroke="none"/>'
        )
    lines.append(
        f'<rect class="region-E" x="{_SVG_MARGIN}" y="{top}" width="{n * w}" '
        f'height="{bot - top}" fill="none" stroke="black" stroke-width="2"/>'
    )
    separators = [_SVG_MARGIN + k * w for k in range(1, n)]
    lines += [_svg_line(x, top, x, bot, "gamma") for x in separators]
    mid_y = (top + bot) // 2
    for i, block in enumerate(model.blocks):
        cx = _SVG_MARGIN + i * w + w // 2
        for j, event in enumerate(block.events):
            cy = mid_y + (j - len(block.events) // 2) * 14
            cls = "event-ii2" if event.kind == "II2" else "event-ii3"
            lines.append(f'<circle class="{cls}" cx="{cx}" cy="{cy}" r="4" fill="black"/>')
    y = bot + _SVG_MARGIN
    s_hi, s_lo, y_end = y + _SVG_TREE_H // 3, y + 2 * _SVG_TREE_H // 3, y + _SVG_TREE_H
    for x in separators:
        lo, hi = x - _SVG_TREE_W // 2, x + _SVG_TREE_W // 2
        edges = [(lo, y, x, s_hi), (hi, y, x, s_hi), (x, s_hi, x, s_lo), (x, s_lo, lo, y_end), (x, s_lo, hi, y_end)]
        lines.append('<g class="reeb-tree">' + "".join(_svg_line(*e, "reeb-edge") for e in edges) + "</g>")
    return "\n".join(lines + ["</svg>", ""])


def oracle_curve_svg(curve) -> str:
    """The SVG of a curve drawn column by column, one f-string group per
    column: a crossing glyph for each double point, a tangency glyph for
    each self-tangency, and two strands with a dashed mark for each
    smoothed crossing, between the two caps."""
    margin, col_w, cap_w, top, bot = 16, 28, 24, 32, 88
    n = len(curve.columns)
    width, height, mid = 2 * margin + 2 * cap_w + n * col_w, bot + top, (top + bot) // 2
    left = margin + cap_w
    right = left + n * col_w
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="0 0 {width} {height}" width="{width}" height="{height}">',
        f'<rect class="region-E" x="{margin // 2}" y="{margin // 2}" width="{width - margin}" '
        f'height="{height - margin}" fill="none" stroke="gray" stroke-width="1"/>',
        f'<path class="cap" d="M {left} {top} C {margin} {top} {margin} {bot} {left} {bot}" '
        f'fill="none" stroke="black" stroke-width="2"/>',
        f'<path class="cap" d="M {right} {top} C {width - margin} {top} {width - margin} {bot} {right} {bot}" '
        f'fill="none" stroke="black" stroke-width="2"/>',
    ]
    for i, column in enumerate(curve.columns):
        x0 = left + i * col_w
        x1, cx = x0 + col_w, x0 + col_w // 2
        if column.kind == "crossing":
            lines.append(f'<g class="crossing">{_svg_line(x0, top, x1, bot, "strand")}{_svg_line(x0, bot, x1, top, "strand")}</g>')
        elif column.kind == "tangency":
            paths = "".join(
                f'<path d="M {x0} {y} Q {cx} {mid} {x1} {y}" fill="none" stroke="black" stroke-width="2"/>' for y in (top, bot)
            )
            lines.append(f'<g class="tangency">{paths}</g>')
        else:
            lines += [_svg_line(x0, top, x1, top, "strand"), _svg_line(x0, bot, x1, bot, "strand")]
            lines.append(_svg_line(cx, top - 8, cx, bot + 8, "smoothed-mark")[:-2] + ' stroke-dasharray="4 3"/>')
    return "\n".join(lines + ["</svg>", ""])


def oracle_trace(blocks):
    """Definite-fold components of a block sequence, traced on an
    adjacency-list graph: the caps close the plat, each by the arcs (1,2)
    and (3,4), and each middle block sends puncture ``pos`` of section ``j``
    to puncture ``permutation[pos - 1]`` of section ``j + 1``.  Reads only
    ``block.permutation``.  Each component is the
    cycle of (section, position) nodes from its first node in
    section-major order, leaving towards the neighbour added first."""
    n = len(blocks) - 1
    nodes = [(k, pos) for k in range(1, n + 1) for pos in (1, 2, 3, 4)]
    arcs = ((1, 2), (3, 4))
    edges = [((1, a), (1, b)) for a, b in arcs]
    for j, block in enumerate(blocks[1:-1], start=1):
        for pos in (1, 2, 3, 4):
            edges.append(((j, pos), (j + 1, block.permutation[pos - 1])))
    edges.extend(((n, a), (n, b)) for a, b in arcs)

    adjacency = {node: [] for node in nodes}
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    assert all(len(nbrs) == 2 for nbrs in adjacency.values()), "strand graph not 2-regular"
    seen = set()
    cycles = []
    for start in nodes:
        if start in seen:
            continue
        cycle = [start]
        seen.add(start)
        prev, here = None, start
        while True:
            a, b = adjacency[here]
            nxt = b if a == prev else a
            if nxt == start:
                break
            cycle.append(nxt)
            seen.add(nxt)
            prev, here = here, nxt
        cycles.append(tuple(cycle))
    return tuple(cycles)


def acyclic_oracle(edges) -> bool:
    """Whether ``edges`` form a tree over the vertices they touch:
    depth-first search with parent tracking, independent of the library."""
    adjacency = {}
    for u, v in edges:
        adjacency.setdefault(u, []).append(v)
        adjacency.setdefault(v, []).append(u)
    seen = set()
    stack = [(next(iter(adjacency)), None)]
    while stack:
        node, parent = stack.pop()
        if node in seen:
            return False
        seen.add(node)
        stack.extend((nbr, node) for nbr in adjacency[node] if nbr != parent)
    return len(seen) == len(adjacency)


def regrouped_runs(items, width: int) -> list[tuple[object, int]]:
    """``items`` as runs ``(item, count)`` of at most ``width`` equal
    items each: a maximal stretch of equal items cut into such runs."""
    items, runs, i = tuple(items), [], 0
    while i < len(items):
        count = 1
        while count < width and i + count < len(items) and items[i + count] == items[i]:
            count += 1
        runs.append((items[i], count))
        i += count
    return runs


def _quoted(text: str, form=repr) -> str:
    """An input as an error message quotes it: whole up to 200
    characters, else 100 from either end and the length."""
    if len(text) > 200:
        return f"{form(text[:100])}...{form(text[-100:])} ({len(text)} characters)"
    return form(text)


def parse_conway_oracle(text: str):
    """``("ConwayWord", entries)`` for a text in Conway notation, else the
    name of the error class and the message that ``parse_conway`` must
    raise, read one character at a time: whitespace anywhere is dropped,
    the text is ``C(...)`` or ``[...]``, an entry is an optional minus and
    ASCII digits, no more of them than ``int()`` reads, and the first
    entry that is not names the error."""
    compact = "".join(ch for ch in text if not ch.isspace())
    if compact[:2] == "C(" and compact[-1:] == ")":
        body = compact[2:-1]
    elif compact[:1] == "[" and compact[-1:] == "]":
        body = compact[1:-1]
    else:
        return "ConwaySyntaxError", f"not Conway notation: {_quoted(text)}"
    if body == "":
        return "ConwaySyntaxError", f"empty entry list: {_quoted(text)}"
    limit = getattr(sys, "get_int_max_str_digits", int)() or len(body)  # 0: no limit
    entries, token = [], ""
    for ch in body + ",":
        if ch != ",":
            token += ch
            continue
        digits = token[1:] if token[:1] == "-" else token
        if not digits or len(digits) > limit or any(d not in "0123456789" for d in digits):
            return "ConwaySyntaxError", f"bad integer {_quoted(token)} in {_quoted(text)}"
        value = 0
        for d in digits:
            value = 10 * value + "0123456789".index(d)
        entries.append(-value if token[:1] == "-" else value)
        token = ""
    if 0 in entries:
        return "ZeroEntryError", f"zero entry in {_quoted(str(tuple(entries)), str)}"
    if len(entries) % 2 == 0:
        return "EvenLengthError", f"{len(entries)} entries; Conway forms have odd length 2m+1"
    return "ConwayWord", tuple(entries)
