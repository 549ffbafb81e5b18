"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion summary lines on success).
"""

import json
import math
import random
import subprocess
import sys
import time
from math import gcd

import pytest

from oracles import (
    all_entry_tuples,
    goeritz_determinant_of_entries,
    nearest_integer_expansion,
    octahedron_volume_oracle,
    orbit_equivalent,
    random_even_b_words,
)
from twobridge.complexity import (
    V_OCT,
    certify_smc,
    smc_lower_bound_from_volume,
    smc_upper_bound,
    weighted_sum,
)
from twobridge.conway import (
    ConwayWord,
    SchubertFraction,
    _continuant,
    all_b_even,
    component_count,
    even_b_normalize,
    fraction_of,
    is_reduced_alternating,
    schubert_equivalent,
    twist_number,
)
from twobridge.errors import InvariantViolationError, NotReducedAlternatingError
from twobridge.morse import LEAVES, SADDLES, assemble_stable_map
from twobridge.render import render_svg
from twobridge.serialize import export_json, import_json

CORPUS_SEED = 20250808
CORPUS = [ConwayWord(entries) for entries in random_even_b_words(CORPUS_SEED, 200)]


def _report(criterion: int, text: str) -> None:
    print(f"[acceptance] criterion {criterion}: PASS - {text}")


def test_criterion_1_f2_census_and_speed():
    worst = 0.0
    for word in CORPUS:
        start = time.perf_counter()
        model = assemble_stable_map(word, "f2")
        elapsed = time.perf_counter() - start
        worst = max(worst, elapsed)
        assert (model.census.ii2, model.census.ii3) == (2 * word.m, 0), word
        assert elapsed < 0.050, f"{word}: {elapsed * 1000:.1f} ms"
    _report(1, f"200 f2 censuses exact (2m, 0); worst assembly {worst * 1000:.1f} ms")


def test_criterion_2_f3_census():
    for word in CORPUS:
        model = assemble_stable_map(word, "f3")
        half_b = sum(abs(b) for b in word.b_entries) // 2
        assert (model.census.ii2, model.census.ii3) == (0, half_b), word
    _report(2, "200 f3 censuses exact (0, sum|b|/2)")


def test_criterion_3_weighted_sums():
    for word in CORPUS:
        f2 = assemble_stable_map(word, "f2")
        f3 = assemble_stable_map(word, "f3")
        upper = smc_upper_bound(word).smc_upper
        assert upper == 2 * word.m == weighted_sum(f2.census)
        sum_b = sum(abs(b) for b in word.b_entries)
        assert weighted_sum(f3.census) == sum_b
        assert sum_b >= 2 * word.m
    _report(3, "smc upper = 2m = f2 weight; f3 weight = sum|b| >= 2m on full corpus")


def test_criterion_4_twist_number():
    alternating = mixed = 0
    for word in CORPUS:
        if is_reduced_alternating(word):
            alternating += 1
            assert twist_number(word) == 2 * word.m + 1
        else:
            mixed += 1
            with pytest.raises(NotReducedAlternatingError):
                twist_number(word)
    # randomized signs guarantee both branches appear
    assert alternating > 0 and mixed > 0
    _report(4, f"tw = 2m+1 on {alternating} alternating words; raised on {mixed} others")


def test_criterion_5_certificate_logic():
    assert abs(V_OCT - octahedron_volume_oracle()) < 1e-9
    assert math.floor(V_OCT * 10**4) / 10**4 == 3.6638  # 4-digit agreement

    word = ConwayWord((2, 2, 2))  # m = 1
    certified = certify_smc(word, 14.0)
    assert certified.status == "certified" and certified.smc_value == 2
    assert certify_smc(word, 3.6639).status == "inconclusive"

    threshold = 2 * V_OCT  # (4m-2) V_oct for m = 1
    epsilon = 1e-9
    rng = random.Random(CORPUS_SEED)
    volumes = sorted(rng.uniform(0.5, 30.0) for _ in range(1000))
    last_certified = False
    for volume in volumes:
        cert = certify_smc(word, volume, epsilon=epsilon)
        is_certified = cert.status == "certified"
        assert is_certified or not last_certified or volume <= threshold + epsilon
        if last_certified:
            assert is_certified  # monotone over the sorted sample
        last_certified = is_certified
        if abs(volume - threshold) > 2 * epsilon:
            assert is_certified == (volume > threshold)
            in_window = threshold < volume <= 4 * V_OCT
            if in_window:
                assert smc_lower_bound_from_volume(volume) == 2
    # exact threshold honored within epsilon
    assert certify_smc(word, threshold + 1e-12, epsilon=epsilon).status == "inconclusive"
    assert certify_smc(word, threshold + 1e-6, epsilon=epsilon).status == "certified"
    _report(5, "certificates exact at (4m-2)V_oct within 1e-9; monotone on 1000 volumes")


def test_criterion_6_classification_oracles():
    pairs = 0
    for p in range(2, 41):
        coprime = [q for q in range(1, p) if gcd(p, q) == 1]
        fractions = {q: SchubertFraction.normalized(p, q) for q in coprime}
        for q1 in coprime:
            for q2 in coprime:
                pairs += 1
                for allow_mirror in (False, True):
                    assert schubert_equivalent(
                        fractions[q1], fractions[q2], allow_mirror=allow_mirror
                    ) == orbit_equivalent(p, q1, q2, allow_mirror)

    words = 0
    for entries in all_entry_tuples(12):
        words += 1
        p_raw, _ = _continuant(entries)
        assert abs(p_raw) == goeritz_determinant_of_entries(entries), entries
    _report(6, f"orbit agreement on {pairs} pairs (p<=40); determinant on {words} words")


def test_criterion_7_even_b_normalization():
    checked = 0
    for p in range(2, 41, 2):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            word = ConwayWord(nearest_integer_expansion(p, q))
            result = even_b_normalize(word)
            assert isinstance(result, ConwayWord), f"search failed for {p}/{q}"
            assert all_b_even(result)
            assert len(result.entries) % 2 == 1
            assert schubert_equivalent(
                fraction_of(result),
                SchubertFraction.normalized(p, q),
                allow_mirror=False,
            )
            checked += 1
    _report(7, f"even-b witness found for all {checked} two-component fractions p<=40")


def test_criterion_8_structural_invariants():
    # every slice is a tag, and carries the one standard tree
    assert len(LEAVES) - len(SADDLES) == 2
    for word in CORPUS[:60]:
        for variant in ("f2", "f3"):
            censuses = set()
            for granularity in ("crossing", "region", "fine"):
                model = assemble_stable_map(word, variant, granularity)
                censuses.add(model.census)
                assert all(type(tag) is str for block in model.blocks for tag in block.slices)
                for left, right in zip(model.blocks, model.blocks[1:]):
                    if left.exit is not None and right.entry is not None:
                        assert left.exit is right.entry
                expected = 2 if fraction_of(word).p % 2 == 0 else 1
                assert model.trace.count == expected == component_count(fraction_of(word))
            assert len(censuses) == 1, f"census varies with granularity for {word}"
    _report(8, "Euler per slice, exact gluing, parity trace, granularity invariance")


def test_criterion_9_serialization_and_golden_svg(tmp_path, cold):
    for word in CORPUS:
        model = assemble_stable_map(word, "f2")
        assert cold(import_json, export_json(model)) == model
    tampered_model = assemble_stable_map(CORPUS[0], "f2")
    doc = json.loads(export_json(tampered_model))
    doc["census"]["ii2"] += 1
    with pytest.raises(InvariantViolationError):
        import_json(json.dumps(doc))

    outputs = []
    for run in range(2):
        target = tmp_path / f"golden-{run}.svg"
        subprocess.run(
            [
                sys.executable,
                "-m",
                "twobridge.cli",
                "render",
                "C(3,2,3)",
                "--subject",
                "model",
                "-o",
                str(target),
            ],
            check=True,
        )
        outputs.append(target.read_bytes())
    assert outputs[0] == outputs[1]
    in_process = render_svg(assemble_stable_map(ConwayWord((3, 2, 3)), "f2")).encode()
    assert outputs[0] == in_process
    _report(9, "JSON roundtrip on 200 models; tamper rejected; SVG bytes stable across runs")
