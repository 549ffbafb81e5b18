#!/usr/bin/env python3
"""One-off check that the benchmark's corpus generator reproduces the
acceptance corpus of the test suite.

    python3 perfbench/check_corpus.py

Exits 0 when ``gen.corpus_entries(20250808)`` equals
``tests/oracles.random_even_b_words(20250808, 200)``, 1 otherwise.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "tests"))

import gen  # noqa: E402
from oracles import random_even_b_words  # noqa: E402

ours = gen.corpus_entries(gen.DEFAULT_SEED, 200)
theirs = random_even_b_words(gen.DEFAULT_SEED, 200)
same = ours == theirs
print(f"seed {gen.DEFAULT_SEED}: {len(ours)} words, {'identical to' if same else 'DIFFERENT from'} tests/oracles.random_even_b_words")
sys.exit(0 if same else 1)
