"""Byte-identity guard for the JSON export and the SVG renders.

``tests/data/golden_digests.json`` holds the sha256 of ``export_json``
and ``render_svg`` for every corpus word in both variants at all three
granularities, plus two ladder-style words in both variants, and three
fine models past a layout's (``render._Layout``) first 1000 rows.  It also
holds the sha256 of the curve render of every corpus word in both
variants, and of its strip render at all three granularities.  Any
change to the pipeline or the encoders must reproduce these bytes exactly.

Regenerate the data file (only when the output format is meant to
change) with::

    PYTHONPATH=src python tests/test_golden_bytes.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from oracles import random_even_b_words
from twobridge.conway import ConwayWord, parse_conway
from twobridge.curves import bigon_reduce, build_plat_diagram, outer_smooth, strip_decompose
from twobridge.morse import assemble_stable_map
from twobridge.render import render_svg
from twobridge.serialize import export_json

DATA = Path(__file__).resolve().parent / "data" / "golden_digests.json"
CORPUS_SEED = 20250808
VARIANTS = ("f2", "f3")
GRANULARITIES = ("crossing", "region", "fine")
LADDER_WORDS = ("C(100,2,100)", "C(3,200,3)")
# 16 to 4004 blocks at fine granularity, by name
FINE_WORDS = {"C(3,2000,3)": "C(3,2000,3)", "C(1000,2,1000)": "C(1000,2,1000)", "C(3,2,...,3) m=300": f"C({'3,2,' * 300}3)"}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _digest_pair(model) -> list[str]:
    return [_sha(export_json(model)), _sha(render_svg(model))]


def corpus_digests() -> dict[str, list[str]]:
    out = {}
    for entries in random_even_b_words(CORPUS_SEED, 200):
        word = ConwayWord(entries)
        for variant in VARIANTS:
            for granularity in GRANULARITIES:
                key = f"{entries} {variant} {granularity}"
                out[key] = _digest_pair(assemble_stable_map(word, variant, granularity))
    return out


def ladder_digests() -> dict[str, list[str]]:
    return {
        f"{text} {variant}": _digest_pair(assemble_stable_map(parse_conway(text), variant))
        for text in LADDER_WORDS
        for variant in VARIANTS
    }


def fine_digests() -> dict[str, list[str]]:
    return {
        f"{name} {variant} fine": _digest_pair(assemble_stable_map(parse_conway(text), variant, "fine"))
        for name, text in FINE_WORDS.items()
        for variant in VARIANTS
    }


def render_digests() -> dict[str, dict[str, str]]:
    """The curve and strip renders of every corpus word, as the CLI's
    ``render --subject curve|strips`` draws them."""
    curves, strips = {}, {}
    for entries in random_even_b_words(CORPUS_SEED, 200):
        for variant in VARIANTS:
            curve = outer_smooth(build_plat_diagram(ConwayWord(entries)))
            if variant == "f3":
                curve = bigon_reduce(curve)
            curves[f"{entries} {variant}"] = _sha(render_svg(curve))
            for granularity in GRANULARITIES:
                decomposition = strip_decompose(curve, variant, granularity)
                strips[f"{entries} {variant} {granularity}"] = _sha(render_svg(decomposition))
    return {"curve": curves, "strips": strips}


@pytest.fixture(scope="module")
def golden():
    return json.loads(DATA.read_text())


def test_corpus_bytes_match_golden(golden):
    got = corpus_digests()
    assert len(got) == 200 * len(VARIANTS) * len(GRANULARITIES)
    mismatched = [key for key, pair in got.items() if golden["corpus"].get(key) != pair]
    assert not mismatched, f"{len(mismatched)} outputs changed, first: {mismatched[:3]}"


def test_ladder_bytes_match_golden(golden):
    assert ladder_digests() == golden["ladder"]


def test_fine_bytes_past_a_thousand_sections_match_golden(golden):
    assert fine_digests() == golden["fine"]


def test_curve_and_strip_render_bytes_match_golden(golden):
    got = render_digests()
    for subject in ("curve", "strips"):
        mismatched = [key for key, digest in got[subject].items() if golden[subject].get(key) != digest]
        assert not mismatched, f"{len(mismatched)} {subject} renders changed, first: {mismatched[:3]}"
        assert len(got[subject]) == len(golden[subject])


if __name__ == "__main__":
    digests = {"corpus": corpus_digests(), "ladder": ladder_digests(), "fine": fine_digests(), **render_digests()}
    DATA.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DATA}")
